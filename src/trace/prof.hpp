// perf_event_open stage profiler.
//
// BENCH_* regressions name a number, not a stage. The StageProfiler samples
// hardware counters (cycles, instructions, cache misses) around the three
// stages that dominate the hot path -- shard drain, RelayPipeline verify
// batch, crypto chain step -- so a regression is attributable to "relay
// verify got 30% more cache misses", not just "ns/op went up".
//
// Same off-by-default discipline as the trace ring: every hook compiles to
// a thread-local pointer check until a profiler is installed on that thread.
// When installed, most entries still only bump a call counter; one in
// sample_every calls additionally reads the perf counter group before and
// after the stage (two read() syscalls, ~1-2 us), so even the ~276 ns chain
// step can be profiled with bounded overhead.
//
// Linux-only by nature (perf_event_open); elsewhere -- and on locked-down
// kernels where perf_event_paranoid forbids counters -- it degrades to
// calls + wall-clock nanoseconds with hw_available() == false. The fallback
// keeps the alpha_prof_* metric shape identical so dashboards and
// check_flight.py need no platform branches.
#pragma once

#include <cstddef>
#include <cstdint>

#include "trace/metrics.hpp"

namespace alpha::trace {

enum class Stage : std::uint8_t {
  kShardDrain = 0,   // ShardedNode: one ring drain (threaded) or frame (inline)
  kRelayVerify = 1,  // RelayPipeline::flush() batched S2 verification
  kChainStep = 2,    // hashchain chain step (one compression-function walk)
};
inline constexpr std::size_t kStageCount = 3;
const char* to_string(Stage stage) noexcept;

class StageProfiler {
 public:
  struct Options {
    /// Read hardware counters on one in N entries per stage (>= 1).
    std::size_t sample_every = 64;
  };

  struct Totals {
    std::uint64_t calls = 0;     // stage entries observed
    std::uint64_t samples = 0;   // entries with a counter read
    std::uint64_t wall_ns = 0;   // wall time of sampled entries
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cache_misses = 0;
  };

  /// In-flight sample scratch (lives on the caller's stack).
  struct Sample {
    std::uint64_t begin[3] = {};
    std::uint64_t t0_ns = 0;
    bool counting = false;
  };

  StageProfiler();
  explicit StageProfiler(Options options);
  ~StageProfiler();
  StageProfiler(const StageProfiler&) = delete;
  StageProfiler& operator=(const StageProfiler&) = delete;

  /// True when the perf counter group opened (Linux, permitted kernel).
  bool hw_available() const noexcept { return group_fd_ >= 0; }

  bool begin(Stage stage, Sample& sample) noexcept;
  void end(Stage stage, Sample& sample) noexcept;

  const Totals& totals(Stage stage) const noexcept {
    return totals_[static_cast<std::size_t>(stage)];
  }

 private:
  bool read_group(std::uint64_t out[3]) noexcept;

  Options options_;
  Totals totals_[kStageCount];
  std::uint64_t entries_[kStageCount] = {};  // sampling phase per stage
  int group_fd_ = -1;      // leader: cycles
  int aux_fd_[2] = {-1, -1};  // instructions, cache misses
};

namespace detail {
// Thread-local like the trace ring: each shard worker installs (or not) its
// own profiler, and the hooks stay free of atomics.
inline thread_local StageProfiler* g_profiler = nullptr;
}  // namespace detail

inline void install_profiler(StageProfiler* p) noexcept {
  detail::g_profiler = p;
}
inline StageProfiler* profiler() noexcept { return detail::g_profiler; }

/// RAII stage hook: a no-op pointer check when no profiler is installed.
class ScopedStage {
 public:
  explicit ScopedStage(Stage stage) noexcept
      : profiler_(detail::g_profiler), stage_(stage) {
    if (profiler_ != nullptr) live_ = profiler_->begin(stage_, sample_);
  }
  ~ScopedStage() {
    if (profiler_ != nullptr && live_) profiler_->end(stage_, sample_);
  }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  StageProfiler* profiler_;
  StageProfiler::Sample sample_;
  Stage stage_;
  bool live_ = false;
};

/// Exports per-stage counters:
///   alpha_prof_calls{stage=".."}, alpha_prof_samples{stage=".."},
///   alpha_prof_wall_ns{stage=".."}, alpha_prof_cycles{stage=".."},
///   alpha_prof_instructions{stage=".."}, alpha_prof_cache_misses{stage=".."},
///   alpha_prof_hw_available 0/1
void export_prof(const StageProfiler& profiler, metrics::Registry& registry);

}  // namespace alpha::trace
