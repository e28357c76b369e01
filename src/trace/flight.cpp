#include "trace/flight.hpp"

#include "crypto/bytes.hpp"
#include "trace/build_info.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <exception>
#include <map>

namespace alpha::trace {

// ---------------------------------------------------------------------------
// Checksums.

std::uint64_t fnv1a64(const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

constexpr std::size_t kHeaderBytes = sizeof(FlightHeader);
constexpr std::size_t kEventBytes = sizeof(Event);

std::uint64_t wall_now_us() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ull;
}

/// CRC over the header with the progress fields zeroed: a torn update of
/// event_count or the metrics fields can never invalidate the identity.
std::uint32_t header_identity_crc(const FlightHeader& h) noexcept {
  FlightHeader canon = h;
  canon.crash_signal = 0;
  canon.event_count = 0;
  canon.events_lost = 0;
  canon.finalized = 0;
  canon.metrics_crc = 0;
  canon.metrics_offset = 0;
  canon.metrics_bytes = 0;
  canon.identity_crc = 0;
  return crypto::crc32(
      {reinterpret_cast<const std::uint8_t*>(&canon), sizeof(canon)});
}

bool make_dirs(const std::string& path) noexcept {
  if (path.empty()) return false;
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i != path.size() && path[i] != '/') continue;
    const std::string prefix = path.substr(0, i);
    if (prefix.empty() || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

bool event_valid(const Event& e) noexcept {
  const auto kind = static_cast<std::uint8_t>(e.kind);
  if (kind == 0 || kind > static_cast<std::uint8_t>(EventKind::kAdaptDecision))
    return false;
  if (static_cast<std::size_t>(e.reason) >= kDropReasonCount) return false;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer.

FlightRecorder::FlightRecorder(FlightOptions options, const Ring* ring)
    : options_(std::move(options)), ring_(ring) {
  if (ring_ == nullptr) {
    error_ = "flight: null ring";
    return;
  }
  if (options_.segment_bytes < kHeaderBytes + 64 * kEventBytes) {
    options_.segment_bytes = kHeaderBytes + 64 * kEventBytes;
  }
  if (options_.wall_epoch_us == 0) options_.wall_epoch_us = wall_now_us();
  if (!make_dirs(options_.dir)) {
    error_ = "flight: cannot create directory " + options_.dir;
    return;
  }
  ring_generation_ = ring_->generation();
  cursor_ = ring_->first_index();
  lost_events_ = ring_->dropped();
  if (!open_segment()) return;
  register_crash_recorder(this);
}

FlightRecorder::~FlightRecorder() {
  finalize();
  unregister_crash_recorder(this);
}

bool FlightRecorder::open_segment() {
  char name[64];
  std::snprintf(name, sizeof(name), "flight-n%u-s%u-%05u.alfr",
                options_.node_id, options_.shard_index, next_segment_);
  segment_path_ = options_.dir + "/" + name;
  fd_ = ::open(segment_path_.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
  if (fd_ < 0) {
    error_ = "flight: cannot open " + segment_path_;
    return false;
  }
  map_len_ = options_.segment_bytes;
  if (::ftruncate(fd_, static_cast<off_t>(map_len_)) != 0) {
    error_ = "flight: ftruncate failed for " + segment_path_;
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  void* map = ::mmap(nullptr, map_len_, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd_, 0);
  if (map == MAP_FAILED) {
    error_ = "flight: mmap failed for " + segment_path_;
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  map_ = static_cast<std::uint8_t*>(map);
  header_ = reinterpret_cast<FlightHeader*>(map_);
  slots_ = reinterpret_cast<Event*>(map_ + kHeaderBytes);
  capacity_ = (map_len_ - kHeaderBytes) / kEventBytes;
  used_ = 0;

  FlightHeader h;
  h.header_bytes = static_cast<std::uint16_t>(kHeaderBytes);
  h.node_id = options_.node_id;
  h.shard_index = options_.shard_index;
  h.segment_index = next_segment_;
  h.wall_epoch_us = options_.wall_epoch_us;
  h.clock_origin_us = options_.clock_origin_us;
  h.config_digest = options_.config_digest;
  h.event_capacity = capacity_;
  h.first_event_index = cursor_;
  h.events_lost = lost_events_;
  // Build info is filled by callers via the metrics snapshot too, but the
  // header copy keeps a recording self-identifying even with no registry.
  const std::string info = build_info_line();
  std::memcpy(h.build_info, info.data(),
              std::min(info.size(), sizeof(h.build_info) - 1));
  h.identity_crc = header_identity_crc(h);
  *header_ = h;
  ++next_segment_;
  since_msync_ = 0;
  return true;
}

void FlightRecorder::write_metrics_blob() {
  if (!options_.metrics_snapshot || header_ == nullptr) return;
  const std::string text = options_.metrics_snapshot();
  if (text.empty()) return;
  const std::size_t offset = kHeaderBytes + used_ * kEventBytes;
  if (offset >= map_len_) return;  // segment is all events; no slack
  const std::size_t avail = map_len_ - offset;
  const std::size_t n = std::min(text.size(), avail);
  std::memcpy(map_ + offset, text.data(), n);
  header_->metrics_offset = offset;
  header_->metrics_bytes = n;
  header_->metrics_crc =
      crypto::crc32({reinterpret_cast<const std::uint8_t*>(text.data()), n});
}

void FlightRecorder::close_segment(bool mark_finalized) {
  if (map_ == nullptr) return;
  write_metrics_blob();
  header_->event_count = used_;
  header_->events_lost = lost_events_;
  if (mark_finalized) header_->finalized = 1;
  ::msync(map_, map_len_, mark_finalized ? MS_SYNC : MS_ASYNC);
  ::munmap(map_, map_len_);
  map_ = nullptr;
  header_ = nullptr;
  slots_ = nullptr;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::size_t FlightRecorder::capture(std::uint64_t upto,
                                    bool allow_rotate) noexcept {
  if (map_ == nullptr || ring_ == nullptr) return 0;
  // Absolute cursors are only comparable within one ring generation (the
  // recorder itself clears the ring in some deployments after a spill).
  if (ring_->generation() != ring_generation_) {
    ring_generation_ = ring_->generation();
    // Restart at the new generation's index 0: the clamp below then books
    // any prefix the ring already overwrote into events_lost.
    cursor_ = 0;
  }
  std::uint64_t start = cursor_;
  const std::uint64_t first = ring_->first_index();
  if (start < first) {
    lost_events_ += first - start;
    header_->events_lost = lost_events_;
    start = first;
  }
  std::size_t captured = 0;
  for (std::uint64_t i = start; i < upto; ++i) {
    if (used_ == capacity_) {
      if (!allow_rotate) break;  // signal context: keep what fits
      close_segment(false);
      if (!open_segment()) break;
    }
    slots_[used_++] = ring_->at_absolute(i);
    ++captured;
    cursor_ = i + 1;
  }
  if (header_ != nullptr) header_->event_count = used_;
  total_events_ += captured;
  return captured;
}

std::size_t FlightRecorder::drain() {
  if (!ok() || finalized_ || map_ == nullptr) return 0;
  const std::size_t n = capture(ring_->total(), /*allow_rotate=*/true);
  since_msync_ += n;
  if (since_msync_ >= options_.msync_every_events && map_ != nullptr) {
    ::msync(map_, map_len_, MS_ASYNC);
    since_msync_ = 0;
  }
  return n;
}

void FlightRecorder::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (map_ == nullptr) return;
  capture(ring_ != nullptr ? ring_->total() : 0, /*allow_rotate=*/true);
  // A perfectly full final segment leaves no tail slack for the shutdown
  // metrics snapshot; spill it into one extra event-free segment rather
  // than silently dropping it.
  if (options_.metrics_snapshot && used_ == capacity_) {
    close_segment(/*mark_finalized=*/true);
    if (!open_segment()) return;
  }
  close_segment(/*mark_finalized=*/true);
}

void FlightRecorder::crash_flush(int signo) noexcept {
  if (map_ == nullptr || finalized_) return;
  capture(ring_ != nullptr ? ring_->total() : 0, /*allow_rotate=*/false);
  header_->crash_signal = static_cast<std::uint32_t>(signo);
  header_->event_count = used_;
  ::msync(map_, map_len_, MS_ASYNC);
}

// ---------------------------------------------------------------------------
// Last-gasp flush plumbing. A bounded lock-free registry of live recorders;
// fatal-signal handlers and the std::terminate hook walk it. Everything on
// this path is async-signal-safe: atomic loads, struct copies into an
// existing mapping, msync.

namespace {

constexpr std::size_t kMaxCrashRecorders = 64;
std::atomic<FlightRecorder*> g_crash_recorders[kMaxCrashRecorders];

constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT};
struct sigaction g_prev_actions[NSIG];
std::atomic<bool> g_handlers_installed{false};
std::terminate_handler g_prev_terminate = nullptr;

void fatal_signal_handler(int signo) {
  crash_flush_all(signo);
  // Chain to whatever was installed before us (sanitizer report printers),
  // else restore the default disposition and re-raise so the exit status
  // still says "killed by signal" and core dumps still happen.
  struct sigaction prev {};
  if (signo > 0 && signo < NSIG) prev = g_prev_actions[signo];
  if ((prev.sa_flags & SA_SIGINFO) == 0 && prev.sa_handler != SIG_DFL &&
      prev.sa_handler != SIG_IGN && prev.sa_handler != nullptr) {
    prev.sa_handler(signo);
    return;
  }
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

[[noreturn]] void flushing_terminate_handler() {
  crash_flush_all(SIGABRT);
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

bool register_crash_recorder(FlightRecorder* recorder) noexcept {
  for (std::size_t i = 0; i < kMaxCrashRecorders; ++i) {
    FlightRecorder* expected = nullptr;
    if (g_crash_recorders[i].compare_exchange_strong(
            expected, recorder, std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

void unregister_crash_recorder(FlightRecorder* recorder) noexcept {
  for (std::size_t i = 0; i < kMaxCrashRecorders; ++i) {
    FlightRecorder* expected = recorder;
    if (g_crash_recorders[i].compare_exchange_strong(
            expected, nullptr, std::memory_order_acq_rel)) {
      return;
    }
  }
}

void crash_flush_all(int signo) noexcept {
  for (std::size_t i = 0; i < kMaxCrashRecorders; ++i) {
    FlightRecorder* r = g_crash_recorders[i].load(std::memory_order_acquire);
    if (r != nullptr) r->crash_flush(signo);
  }
}

bool install_crash_handlers() noexcept {
  bool expected = false;
  if (!g_handlers_installed.compare_exchange_strong(expected, true)) {
    return true;  // already installed
  }
  struct sigaction sa{};
  sa.sa_handler = fatal_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_NODEFER;
  bool ok = true;
  for (int signo : kFatalSignals) {
    if (::sigaction(signo, &sa, &g_prev_actions[signo]) != 0) ok = false;
  }
  g_prev_terminate = std::set_terminate(flushing_terminate_handler);
  return ok;
}

// ---------------------------------------------------------------------------
// Reader.

namespace {

bool pread_exact(int fd, void* buf, std::size_t len, off_t offset) noexcept {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n =
        ::pread(fd, p + done, len - done, offset + static_cast<off_t>(done));
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool read_flight_segment(const std::string& path, FlightSegment& out,
                         std::string* err) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (err != nullptr) *err = "flight: cannot open " + path;
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 ||
      static_cast<std::size_t>(st.st_size) < kHeaderBytes) {
    ::close(fd);
    if (err != nullptr) *err = "flight: short file " + path;
    return false;
  }
  const std::uint64_t file_size = static_cast<std::uint64_t>(st.st_size);

  FlightHeader h{};
  if (!pread_exact(fd, &h, kHeaderBytes, 0)) {
    ::close(fd);
    if (err != nullptr) *err = "flight: header read failed " + path;
    return false;
  }
  if (h.magic != kFlightMagic) {
    ::close(fd);
    if (err != nullptr) *err = "flight: bad magic in " + path;
    return false;
  }
  if (h.version != kFlightVersion || h.header_bytes != kHeaderBytes) {
    ::close(fd);
    if (err != nullptr) *err = "flight: unsupported version in " + path;
    return false;
  }
  if (header_identity_crc(h) != h.identity_crc) {
    ::close(fd);
    if (err != nullptr) *err = "flight: header checksum mismatch in " + path;
    return false;
  }
  const std::uint64_t max_slots = (file_size - kHeaderBytes) / kEventBytes;
  const std::uint64_t count = std::min(h.event_count, max_slots);

  out = FlightSegment{};
  out.header = h;
  out.path = path;
  out.events.reserve(static_cast<std::size_t>(count));
  std::vector<Event> raw(static_cast<std::size_t>(count));
  if (count > 0 &&
      !pread_exact(fd, raw.data(), raw.size() * kEventBytes, kHeaderBytes)) {
    ::close(fd);
    if (err != nullptr) *err = "flight: event read failed " + path;
    return false;
  }
  for (const Event& e : raw) {
    if (event_valid(e)) {
      out.events.push_back(e);
    } else {
      ++out.invalid_events;
    }
  }
  if (h.metrics_offset != 0 && h.metrics_bytes != 0 &&
      h.metrics_offset + h.metrics_bytes <= file_size) {
    std::string text(static_cast<std::size_t>(h.metrics_bytes), '\0');
    if (pread_exact(fd, text.data(), text.size(),
                    static_cast<off_t>(h.metrics_offset))) {
      out.metrics_valid =
          crypto::crc32(crypto::as_bytes(text)) == h.metrics_crc;
      if (out.metrics_valid) out.metrics_text = std::move(text);
    }
  }
  ::close(fd);
  return true;
}

bool read_flight_dir(const std::string& dir, FlightRecording& out,
                     std::string* err) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (err != nullptr) *err = "flight: cannot open directory " + dir;
    return false;
  }
  std::vector<std::string> paths;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() > 5 && name.substr(name.size() - 5) == ".alfr") {
      paths.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(paths.begin(), paths.end());

  out = FlightRecording{};
  std::string first_err;
  for (const std::string& path : paths) {
    FlightSegment seg;
    std::string seg_err;
    if (read_flight_segment(path, seg, &seg_err)) {
      out.segments.push_back(std::move(seg));
    } else if (first_err.empty()) {
      first_err = seg_err;
    }
  }
  std::sort(out.segments.begin(), out.segments.end(),
            [](const FlightSegment& a, const FlightSegment& b) {
              if (a.header.shard_index != b.header.shard_index)
                return a.header.shard_index < b.header.shard_index;
              return a.header.segment_index < b.header.segment_index;
            });
  if (out.segments.empty()) {
    if (err != nullptr) {
      *err = first_err.empty() ? ("flight: no segments under " + dir)
                               : first_err;
    }
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Merge.

namespace {

/// Transport-pair key: one send and one receive of the same frame share
/// (assoc, seq, packet type). First occurrence wins (retransmits reuse the
/// key; the first pair is the one with comparable timestamps).
std::uint64_t pair_key(const Event& e) noexcept {
  return (static_cast<std::uint64_t>(e.assoc_id) << 40) ^
         (static_cast<std::uint64_t>(e.seq) << 8) ^ e.packet_type;
}

double median(std::vector<double>& v) noexcept {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct NodeEvents {
  std::uint32_t node_id = 0;
  std::vector<MergedEvent> events;  // wall_us uncorrected at this stage
  std::map<std::uint64_t, std::uint64_t> first_sent;
  std::map<std::uint64_t, std::uint64_t> first_received;
};

}  // namespace

bool merge_recordings(const std::vector<FlightRecording>& recordings,
                      MergeResult& out, std::string* err) {
  if (recordings.size() < 2) {
    if (err != nullptr) *err = "flight: merge needs at least two recordings";
    return false;
  }
  std::vector<NodeEvents> nodes;
  nodes.reserve(recordings.size());
  for (const FlightRecording& rec : recordings) {
    NodeEvents ne;
    ne.node_id = rec.node_id();
    for (const FlightSegment& seg : rec.segments) {
      for (const Event& e : seg.events) {
        MergedEvent me;
        me.node_id = ne.node_id;
        me.wall_us = flight_wall_us(seg.header, e.time_us);
        me.event = e;
        if (e.kind == EventKind::kTransportSent) {
          ne.first_sent.emplace(pair_key(e), me.wall_us);
        } else if (e.kind == EventKind::kTransportReceived) {
          ne.first_received.emplace(pair_key(e), me.wall_us);
        }
        ne.events.push_back(me);
      }
    }
    nodes.push_back(std::move(ne));
  }

  out = MergeResult{};
  std::vector<double> offsets(nodes.size(), 0.0);
  const NodeEvents& ref = nodes.front();
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const NodeEvents& peer = nodes[i];
    // Forward deltas: ref sent, peer received. Reverse: peer sent, ref
    // received. With symmetric links, offset = (fwd - rev) / 2.
    std::vector<double> fwd, rev;
    for (const auto& [key, t_sent] : ref.first_sent) {
      auto it = peer.first_received.find(key);
      if (it != peer.first_received.end()) {
        fwd.push_back(static_cast<double>(it->second) -
                      static_cast<double>(t_sent));
      }
    }
    for (const auto& [key, t_sent] : peer.first_sent) {
      auto it = ref.first_received.find(key);
      if (it != ref.first_received.end()) {
        rev.push_back(static_cast<double>(it->second) -
                      static_cast<double>(t_sent));
      }
    }
    ClockLink link;
    link.node_id = peer.node_id;
    if (!fwd.empty() && !rev.empty()) {
      const double med_fwd = median(fwd);
      const double med_rev = median(rev);
      link.offset_us = (med_fwd - med_rev) / 2.0;
      link.latency_us = (med_fwd + med_rev) / 2.0;
      link.matched_pairs = fwd.size() + rev.size();
      link.refined = true;
    }
    offsets[i] = link.offset_us;
    out.links.push_back(link);
  }

  std::size_t total = 0;
  for (const NodeEvents& ne : nodes) total += ne.events.size();
  out.timeline.reserve(total);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (MergedEvent me : nodes[i].events) {
      const double corrected = static_cast<double>(me.wall_us) - offsets[i];
      me.wall_us = corrected <= 0.0 ? 0 : static_cast<std::uint64_t>(corrected);
      out.timeline.push_back(me);
    }
  }
  std::stable_sort(out.timeline.begin(), out.timeline.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     return a.wall_us < b.wall_us;
                   });
  return true;
}

}  // namespace alpha::trace
