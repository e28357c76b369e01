// Flight recorder: crash-safe persistent spill of the trace ring.
//
// The PR-4/5 observability story dies with the process: the ring, the spans
// and the /metrics endpoint are all in-memory. Production MANET nodes treat
// crashes, OOM-kills and restarts as routine (ROADMAP item 4), so the last
// seconds *before* the death are exactly the data worth keeping. The
// FlightRecorder drains the thread's trace ring into memory-mapped,
// versioned segment files:
//
//   [ 4 KiB-aligned FlightHeader ][ event slots, 32 B each ... ][ metrics ]
//
// Crash safety comes from the mmap itself -- an event memcpy'd into the
// mapping survives process death with no further syscalls, because the dirty
// pages belong to the kernel, not the process -- plus an msync() cadence for
// machine-level durability and a last-gasp flush (fatal-signal handler +
// std::terminate hook) that drains whatever the ring still holds, stamps the
// signal number into the header and msync()s, all async-signal-safely.
// Segments rotate by size; a Prometheus text snapshot of the registry is
// appended into each segment's tail slack at rotation and clean shutdown.
//
// The reader half (read_flight_dir) validates headers (magic, version, CRC)
// and event payloads so `alpha_inspect --flight` can reconstruct spans, the
// drop taxonomy, health transitions and the kAdaptDecision log fully
// offline; merge_recordings() correlates recordings from separate processes
// into one timeline, estimating per-node clock offsets from matched
// kTransportSent/kTransportReceived pairs (NTP's two-sample trick: offset =
// (fwd - rev) / 2, latency = (fwd + rev) / 2, medians over all matches).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace alpha::trace {

inline constexpr std::uint32_t kFlightMagic = 0x52464C41u;  // "ALFR" LE
inline constexpr std::uint16_t kFlightVersion = 1;

/// Segment file header, exactly 256 bytes at offset 0. Identity fields are
/// written once at segment creation and covered by identity_crc; progress
/// fields (event_count, events_lost, crash_signal, finalized, metrics_*)
/// mutate as the segment fills and are excluded from the CRC so a torn
/// header update can never invalidate an otherwise-good recording.
struct FlightHeader {
  std::uint32_t magic = kFlightMagic;
  std::uint16_t version = kFlightVersion;
  std::uint16_t header_bytes = 0;      // sizeof(FlightHeader), offset of slot 0
  std::uint32_t node_id = 0;
  std::uint32_t shard_index = 0;
  std::uint32_t segment_index = 0;     // 0, 1, ... within one recorder
  std::uint32_t crash_signal = 0;      // fatal signal that flushed us, else 0
  std::uint64_t wall_epoch_us = 0;     // CLOCK_REALTIME at segment creation
  std::uint64_t clock_origin_us = 0;   // trace-clock value at segment creation
  std::uint64_t config_digest = 0;     // FNV-1a of the node's config blob
  std::uint64_t event_capacity = 0;    // slots in this segment
  std::uint64_t event_count = 0;       // committed events (<= capacity)
  std::uint64_t first_event_index = 0; // absolute ring index of slot 0
  std::uint64_t events_lost = 0;       // ring-overwritten before capture
  std::uint32_t finalized = 0;         // 1 after a clean finalize()
  std::uint32_t metrics_crc = 0;       // CRC-32 of the metrics blob
  std::uint64_t metrics_offset = 0;    // file offset of snapshot text, 0=none
  std::uint64_t metrics_bytes = 0;
  char build_info[144] = {};           // "version|backend|compiler", NUL-padded
  std::uint32_t reserved = 0;
  std::uint32_t identity_crc = 0;      // CRC-32, mutable fields zeroed
};
static_assert(sizeof(FlightHeader) == 256, "recording format is versioned");

/// FNV-1a 64-bit, for config digests stamped into headers.
std::uint64_t fnv1a64(const void* data, std::size_t len) noexcept;
inline std::uint64_t fnv1a64(const std::string& s) noexcept {
  return fnv1a64(s.data(), s.size());
}

struct FlightOptions {
  std::string dir;                   // created if missing
  std::uint32_t node_id = 0;
  std::uint32_t shard_index = 0;
  std::size_t segment_bytes = 4u << 20;  // rotation threshold (sparse file)
  std::uint64_t config_digest = 0;
  /// Trace-clock value "now" (e.g. Transport::now_us()) at recorder
  /// creation, pairing with wall_epoch_us to map event times to wall time.
  std::uint64_t clock_origin_us = 0;
  /// Wall-clock microseconds at creation; 0 = sample CLOCK_REALTIME.
  /// Overridable so tests can inject a known cross-recording skew.
  std::uint64_t wall_epoch_us = 0;
  /// msync(MS_ASYNC) after this many drained events (machine-crash
  /// durability; process-crash durability needs no msync at all).
  std::size_t msync_every_events = 4096;
  /// Rendered into each segment at rotation/finalize (tail slack permitting).
  /// Called from normal context only, never from the signal path.
  std::function<std::string()> metrics_snapshot;
};

/// Spills one trace ring to segment files. Singled-threaded like the ring
/// itself: construct, drain() periodically from the owning thread,
/// finalize() (or just destroy) when done. crash_flush() is the exception --
/// async-signal-safe, called by the fatal-signal/terminate hooks.
class FlightRecorder {
 public:
  FlightRecorder(FlightOptions options, const Ring* ring);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// False when the directory/segment could not be created; error() says why.
  bool ok() const noexcept { return error_.empty(); }
  const std::string& error() const noexcept { return error_; }

  /// Copies every ring event recorded since the last drain into the current
  /// segment, rotating as needed. Steady-state cost: one generation check
  /// plus a 32 B struct copy per new event (0 allocations). Returns events
  /// captured.
  std::size_t drain();

  /// Final drain + metrics snapshot + durable msync + unmap. Idempotent;
  /// the destructor calls it.
  void finalize();

  /// Last-gasp flush from a fatal-signal handler: drains what fits in the
  /// current segment (no rotation, no allocation, no locks), stamps `signo`,
  /// msync(MS_ASYNC). Safe to call on a half-crashed process.
  void crash_flush(int signo) noexcept;

  std::uint64_t events_written() const noexcept { return total_events_; }
  std::uint32_t segments_opened() const noexcept { return next_segment_; }
  const std::string& current_path() const noexcept { return segment_path_; }

 private:
  bool open_segment();
  void close_segment(bool mark_finalized);
  void write_metrics_blob();
  std::size_t capture(std::uint64_t upto, bool allow_rotate) noexcept;

  FlightOptions options_;
  const Ring* ring_;
  std::string error_;
  std::string segment_path_;

  std::uint8_t* map_ = nullptr;   // current segment mapping
  std::size_t map_len_ = 0;
  int fd_ = -1;
  FlightHeader* header_ = nullptr;
  Event* slots_ = nullptr;
  std::uint64_t capacity_ = 0;    // slots in current segment
  std::uint64_t used_ = 0;        // committed slots in current segment

  std::uint64_t cursor_ = 0;      // absolute ring index of next event
  std::uint64_t ring_generation_ = 0;
  std::uint64_t lost_events_ = 0; // cumulative ring-overwrite losses
  std::uint64_t total_events_ = 0;
  std::size_t since_msync_ = 0;
  std::uint32_t next_segment_ = 0;
  bool finalized_ = false;
};

/// Registers `recorder` with the process-wide last-gasp flush set (bounded,
/// lock-free). The FlightRecorder constructor/destructor do this
/// automatically; these exist for tests.
bool register_crash_recorder(FlightRecorder* recorder) noexcept;
void unregister_crash_recorder(FlightRecorder* recorder) noexcept;

/// Installs fatal-signal handlers (SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT)
/// and a std::terminate hook that crash_flush() every registered recorder,
/// then re-raise the default disposition so exit status and core dumps are
/// preserved. Idempotent. Opt-in: tools call it, the library never does.
bool install_crash_handlers() noexcept;

/// Flushes every registered recorder now (what the handlers do); exposed
/// for tests and for embedders with their own signal infrastructure.
void crash_flush_all(int signo) noexcept;

// ---------------------------------------------------------------------------
// Reader side.

struct FlightSegment {
  FlightHeader header;
  std::vector<Event> events;   // valid events, ring order
  std::string metrics_text;    // empty if absent or CRC-mismatched
  std::string path;
  std::uint64_t invalid_events = 0;  // slots rejected by validation
  bool metrics_valid = false;
};

/// One directory's worth of segments, sorted by (shard, segment index).
struct FlightRecording {
  std::vector<FlightSegment> segments;
  /// Primary node id (from the first segment; segments of one recording
  /// always agree).
  std::uint32_t node_id() const noexcept {
    return segments.empty() ? 0 : segments.front().header.node_id;
  }
  std::uint64_t total_events() const noexcept {
    std::uint64_t n = 0;
    for (const FlightSegment& s : segments) n += s.events.size();
    return n;
  }
};

/// Maps an event timestamp from `header`'s segment onto the recording
/// node's wall clock (microseconds since the Unix epoch).
inline std::uint64_t flight_wall_us(const FlightHeader& header,
                                    std::uint64_t time_us) noexcept {
  return header.wall_epoch_us + time_us - header.clock_origin_us;
}

/// Loads and validates one segment file. Returns false (with *err set) on
/// structural corruption; per-event validation failures only bump
/// out.invalid_events.
bool read_flight_segment(const std::string& path, FlightSegment& out,
                         std::string* err);

/// Loads every *.alfr segment under `dir`. False if none load.
bool read_flight_dir(const std::string& dir, FlightRecording& out,
                     std::string* err);

// ---------------------------------------------------------------------------
// Cross-node merge.

struct MergedEvent {
  std::uint32_t node_id = 0;
  std::uint64_t wall_us = 0;   // offset-corrected wall time
  Event event;
};

/// Estimated clock relation of one recording against the reference
/// (recording 0). offset_us is how far this node's wall clock runs ahead of
/// the reference's; subtracting it aligns the timelines.
struct ClockLink {
  std::uint32_t node_id = 0;
  double offset_us = 0.0;
  double latency_us = 0.0;     // median one-way latency to/from the reference
  std::size_t matched_pairs = 0;
  bool refined = false;        // true: send/recv pairs; false: epoch only
};

struct MergeResult {
  std::vector<MergedEvent> timeline;  // sorted by corrected wall time
  std::vector<ClockLink> links;       // one per non-reference recording
};

/// Correlates recordings from separate processes into one timeline.
/// Recording 0 is the time reference. For each other recording, clock
/// offset is estimated from matched kTransportSent/kTransportReceived pairs
/// (keyed by assoc/seq/packet-type, first occurrence each direction); with
/// no matches it falls back to trusting the wall epochs as-is.
bool merge_recordings(const std::vector<FlightRecording>& recordings,
                      MergeResult& out, std::string* err);

}  // namespace alpha::trace
