// The three benchmark workloads. Each fills a Report with its end-to-end
// metrics (untraced run) or its per-layer metrics (traced run), and with
// the outcome of its correctness checks.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test fault injection: "forged-forwarded" (relay_cpu) or
  /// "drop-message" (path workloads). Empty in every measured run.
  std::string inject;
};

void run_relay_cpu(const RunOptions& options, Report& report);
void run_path_udp(const RunOptions& options, Report& report);
void run_path_sim(const RunOptions& options, Report& report);

/// Returns free heap pages to the OS (malloc_trim).
void release_free_heap();

/// Times `setup` `times` times and returns the median seconds; the object
/// built by the last call is kept in `out`. Between builds the previous one
/// is released and its freed heap handed back to the OS, so the discarded
/// builds do not leave the measured run a varying amount of resident
/// memory.
template <typename T, typename Setup>
double timed_setup(int times, T& out, Setup&& setup) {
  std::vector<double> secs;
  for (int i = 0; i < times; ++i) {
    out = T{};
    release_free_heap();
    const auto t0 = Clock::now();
    out = setup();
    secs.push_back(seconds_since(t0));
  }
  return median(secs);
}

/// Writes the span log of a traced run to .bench_out/ (relative to the
/// working directory) and reports where it went.
void write_spans(const SpanLog& spans, const RunOptions& options,
                 const std::string& workload, Report& report);

/// Adds per-name span totals (count, self time per span) as report lines.
void report_span_layers(const SpanLog& spans, Report& report);

}  // namespace perfbench
