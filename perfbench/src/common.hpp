// Shared plumbing of the benchmark driver: clocks, seeded randomness,
// order statistics, the metric report, the span log, the allocation
// counters of the benchmark's own new/delete hook, /proc readers and the
// host/build fingerprint.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(Clock::time_point t0) noexcept {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ randomness --

/// splitmix64 finalizer: a well-mixed 64-bit function of its input.
inline std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Seeded generator for workload inputs; every input derives from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept {
    state_ += 0x9e3779b97f4a7c15ull;
    return mix64(state_);
  }
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) noexcept { return next() % bound; }
  /// Uniform in [0, 1).
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// `count` distinct nonzero association ids drawn from `seed`.
std::vector<std::uint32_t> make_assoc_ids(std::uint64_t seed,
                                          std::size_t count);

/// Deterministic filler bytes for message `msg_id` of a run seeded `seed`.
void fill_bytes(std::uint64_t seed, std::uint64_t msg_id, std::uint8_t* out,
                std::size_t n) noexcept;

// ------------------------------------------------------------ statistics --

/// q-quantile (0..1) by linear interpolation between order statistics;
/// NaN for an empty sample. Takes a copy: callers keep their order.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Log-linear histogram of positive values: 256 buckets per power of two
/// (0.4% wide), fixed memory however many values are added. Quantiles
/// interpolate inside the bucket holding the rank.
class LogHistogram {
 public:
  LogHistogram() : buckets_(kExponents * kSub, 0) {}
  void add(double v) noexcept;
  double quantile(double q) const;
  std::uint64_t count() const noexcept { return count_; }

 private:
  static constexpr int kSub = 256;
  static constexpr int kMinExp = -10;  // values from ~0.001
  static constexpr int kExponents = 48;
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Splits a measured window into fixed wall-clock slices and keeps one
/// figure per slice, so interference from outside the process (a stolen
/// vCPU, a noisy neighbour) moves some slices instead of the result: the
/// workloads report the median over slices.
class Slices {
 public:
  explicit Slices(double slice_s) : slice_s_(slice_s) {}

  /// Starts the first slice at `elapsed` with the running totals.
  void start(double elapsed, std::uint64_t ops, double cpu_s);
  /// Whether the current slice has run its length.
  bool due(double elapsed) const noexcept {
    return started_ && elapsed - t0_ >= slice_s_;
  }
  /// Closes the current slice and starts the next.
  void close(double elapsed, std::uint64_t ops, double cpu_s);

  std::size_t size() const noexcept { return rates_.size(); }
  double median_rate() const { return median(rates_); }
  double median_cpu_per_op() const { return median(cpu_per_op_); }
  /// Space-separated per-slice rates, for the report.
  std::string rates_line() const;

 private:
  double slice_s_;
  double t0_ = 0;
  std::uint64_t ops0_ = 0;
  double cpu0_ = 0;
  bool started_ = false;
  std::vector<double> rates_;
  std::vector<double> cpu_per_op_;
};

// ---------------------------------------------------------------- report --

/// One reported figure. `json` marks metrics that BENCHMARK.json declares:
/// they appear in the final JSON line under `json_name`.
struct Metric {
  std::string name;       // display name (the name the issue uses)
  std::string json_name;  // empty = report only
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
  std::string note;
};

class Report {
 public:
  /// A metric that BENCHMARK.json declares, printed under `name` and
  /// exported as `json_name`.
  void declared(const std::string& json_name, const std::string& name,
                double value, const std::string& unit, std::uint64_t samples,
                const std::string& note = "");
  /// A metric printed in the report only.
  void info(const std::string& name, double value, const std::string& unit,
            std::uint64_t samples, const std::string& note = "");
  /// Free-form report line.
  void line(const std::string& text);

  /// Correctness bookkeeping: `attempted` operations, `failed` of them.
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Records a failed check; any error makes the run incorrect.
  void error(const std::string& what);

  bool correct() const noexcept { return errors_.empty() && failed_ == 0; }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

  /// Prints the report lines, then the JSON result as the last line.
  void print(const std::string& workload, bool traced) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> lines_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ----------------------------------------------------------------- spans --

/// Spans recorded by the benchmark around its own calls into a layer:
/// name, start, end, parent and the frame or message id they belong to.
/// Kept in memory (up to a cap) and written out when the run ends.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit SpanLog(std::size_t capacity = 1u << 20) : capacity_(capacity) {}

  /// Interns a span name; call before the timed section.
  std::uint16_t name_id(const std::string& name);

  /// Records one span and returns its index (kNoParent when full).
  std::uint32_t record(std::uint16_t name, std::uint64_t id,
                       std::uint32_t parent, std::uint64_t start_ns,
                       std::uint64_t end_ns) noexcept {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return kNoParent;
    }
    spans_.push_back(Span{start_ns, end_ns, id, parent, name});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  /// Opens a span whose end is set later by close(); lets a callback made
  /// inside the call record its span as a child.
  std::uint32_t open(std::uint16_t name, std::uint64_t id,
                     std::uint32_t parent, std::uint64_t start_ns) noexcept {
    return record(name, id, parent, start_ns, start_ns);
  }
  void close(std::uint32_t index, std::uint64_t end_ns) noexcept {
    if (index < spans_.size()) spans_[index].end_ns = end_ns;
  }

  /// Appends another log's spans (re-indexing parents), e.g. per-thread
  /// logs merged after their threads have been joined.
  void merge(const SpanLog& other);

  struct LayerTime {
    std::string name;
    std::uint64_t spans = 0;
    double total_ns = 0;  // sum of span durations
    double self_ns = 0;   // total minus the time covered by child spans
  };
  /// Per-name totals; self time subtracts each span's direct children.
  std::vector<LayerTime> layer_times() const;

  std::size_t size() const noexcept { return spans_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Writes "name,id,parent,start_ns,end_ns" lines after a header.
  bool write_csv(const std::string& path, const std::string& header) const;

 private:
  struct Span {
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t id;
    std::uint32_t parent;
    std::uint16_t name;
  };
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------- allocations --

/// Per-thread counters maintained by the benchmark's operator new/delete
/// replacement (alloc_hook.cpp). Only the owning thread writes; other
/// threads may read them (relaxed) while it runs.
struct AllocCounters {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> bytes_allocated{0};
  std::atomic<std::uint64_t> bytes_freed{0};

  std::uint64_t live_bytes() const noexcept {
    return bytes_allocated.load(std::memory_order_relaxed) -
           bytes_freed.load(std::memory_order_relaxed);
  }
  std::uint64_t alloc_count() const noexcept {
    return allocs.load(std::memory_order_relaxed);
  }
};

/// The calling thread's counters.
AllocCounters& thread_allocs() noexcept;

// ------------------------------------------------------------------ /proc --

pid_t current_tid() noexcept;
/// Thread ids of this process (from /proc/self/task).
std::vector<pid_t> list_tids();

struct ThreadUsage {
  double cpu_s = 0;                  // user + system time
  std::uint64_t invol_switches = 0;  // nonvoluntary context switches
};
std::optional<ThreadUsage> thread_usage(pid_t tid);

/// Process user + system CPU seconds so far.
double process_cpu_s();
/// The calling thread's CPU seconds so far.
double thread_cpu_s();
/// Peak resident set size (VmHWM) in MiB.
double peak_rss_mb();

// ------------------------------------------------------------ fingerprint --

/// One line naming the host and build: CPU model, nproc, compiler, build
/// type, crypto backend and the library's build_info_line().
std::string fingerprint();
/// False for a build compiled without optimisation.
bool optimized_build() noexcept;

}  // namespace perfbench
