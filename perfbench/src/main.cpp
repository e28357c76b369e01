// alpha_perfbench: runs one benchmark workload and prints its report, with
// the JSON result as the last line of standard output.
//
//   alpha_perfbench --workload relay_cpu|path_udp|path_sim --seed N
//                   --seconds S --trace 0|1 [--inject KIND]
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on bad arguments.
#include <malloc.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace perfbench {

void release_free_heap() { ::malloc_trim(0); }

void write_spans(const SpanLog& spans, const RunOptions& options,
                 const std::string& workload, Report& report) {
  const std::string dir = ".bench_out";
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/spans-" + workload + "-seed" +
                           std::to_string(options.seed) + ".csv";
  const std::string header = "workload=" + workload +
                             " seed=" + std::to_string(options.seed) + " " +
                             fingerprint();
  if (spans.write_csv(path, header)) {
    report.line("# spans: " + std::to_string(spans.size()) + " written to " +
                path + " (dropped " + std::to_string(spans.dropped()) + ")");
  } else {
    report.line("# spans: could not write " + path);
  }
}

void report_span_layers(const SpanLog& spans, Report& report) {
  for (const auto& lt : spans.layer_times()) {
    if (lt.spans == 0) continue;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "# span %-28s count=%-9llu total_ms=%-12.3f self_ms=%-12.3f "
                  "self_ns/span=%.1f",
                  lt.name.c_str(), static_cast<unsigned long long>(lt.spans),
                  lt.total_ns * 1e-6, lt.self_ns * 1e-6,
                  lt.self_ns / static_cast<double>(lt.spans));
    report.line(buf);
  }
}

}  // namespace perfbench

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload relay_cpu|path_udp|path_sim --seed N "
               "--seconds S --trace 0|1 [--inject KIND]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--inject") {
      opt.inject = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0) return usage(argv[0]);

  perfbench::Report report;
  try {
    if (workload == "relay_cpu") {
      perfbench::run_relay_cpu(opt, report);
    } else if (workload == "path_udp") {
      perfbench::run_path_udp(opt, report);
    } else if (workload == "path_sim") {
      perfbench::run_path_sim(opt, report);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    report.error(std::string("exception: ") + e.what());
  }
  report.print(workload, opt.trace);
  return report.correct() ? 0 : 1;
}
