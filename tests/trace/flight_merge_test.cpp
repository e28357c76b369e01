// Cross-node postmortem merge: two real processes exchange ALPHA traffic
// over loopback UDP, each writing its own flight recording -- with a large
// artificial clock skew injected into one of them. The parent merges the
// recordings offline and must (a) recover the injected skew from matched
// send/receive pairs, (b) restore causality that the skew destroyed, and
// (c) produce hop latencies consistent with the live span-derived RTT
// measured inside the sender process.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sharded_node.hpp"
#include "net/transport.hpp"
#include "trace/flight.hpp"
#include "trace/spans.hpp"
#include "trace/trace.hpp"

namespace alpha::trace {
namespace {

constexpr int kMessages = 12;
/// Injected wall-clock skew on node B: 2 s, ~4 orders of magnitude above
/// loopback latency, so recovery cannot be luck.
constexpr std::uint64_t kSkewUs = 2'000'000;

std::uint64_t wall_now_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ull;
}

std::string fresh_dir(const char* tag) {
  std::string dir = ::testing::TempDir() + "alpha_merge_" + tag + "_" +
                    std::to_string(::getpid());
  std::string cmd = "rm -rf " + dir;
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

struct SenderReport {
  double live_rtt_med_us = 0.0;  // median S2-send -> A2-accept from spans
  std::uint64_t acked = 0;
};

core::Config tunnel_config() {
  core::Config config;
  config.reliable = true;
  config.rto_us = 100'000;
  return config;
}

/// Node B: accepts the inbound association, runs with its recorder's wall
/// epoch shifted +kSkewUs, exits after delivering all messages plus grace.
[[noreturn]] void run_receiver(const std::string& dir, int port_fd) {
  Ring ring(std::size_t{1} << 16);
  install(&ring);
  auto transport = std::make_unique<net::UdpTransport>();
  net::UdpTransport* udp = transport.get();

  FlightOptions fopts;
  fopts.dir = dir;
  fopts.node_id = 2;
  fopts.clock_origin_us = udp->now_us();
  fopts.wall_epoch_us = wall_now_us() + kSkewUs;  // the injected skew
  FlightRecorder recorder(fopts, &ring);
  if (!recorder.ok()) _exit(61);

  core::ShardedNode::Options opts;
  opts.workers = 0;  // this thread's ring records transport + engine events
  opts.shard.config = tunnel_config();
  opts.shard.seed = 2;
  opts.shard.accept_inbound = true;
  opts.shard.trace_origin = 2;
  int delivered = 0;
  core::ShardedNode::Callbacks cbs;
  cbs.on_message = [&](std::uint32_t, crypto::ByteView) { ++delivered; };
  core::ShardedNode node{std::move(transport), opts, cbs};

  const std::uint16_t port =
      static_cast<net::UdpTransport&>(node.transport()).port();
  if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) _exit(62);

  const std::uint64_t deadline = udp->now_us() + 30'000'000ull;
  while (delivered < kMessages && udp->now_us() < deadline) {
    node.poll(5);
    recorder.drain();
  }
  // Grace: keep acking retransmits while the sender wraps up.
  const std::uint64_t grace_until = udp->now_us() + 1'500'000ull;
  while (udp->now_us() < grace_until) {
    node.poll(5);
    recorder.drain();
  }
  recorder.finalize();
  install(nullptr);
  _exit(delivered == kMessages ? 0 : 63);
}

/// Node A: initiates, sends kMessages one at a time (waiting for the ack),
/// reports its live span-derived RTT, records with an unskewed clock.
[[noreturn]] void run_sender(const std::string& dir, std::uint16_t peer_port,
                             int report_fd) {
  Ring ring(std::size_t{1} << 16);
  install(&ring);
  auto transport = std::make_unique<net::UdpTransport>();
  net::UdpTransport* udp = transport.get();

  FlightOptions fopts;
  fopts.dir = dir;
  fopts.node_id = 1;
  fopts.clock_origin_us = udp->now_us();
  FlightRecorder recorder(fopts, &ring);
  if (!recorder.ok()) _exit(71);

  core::ShardedNode::Options opts;
  opts.workers = 0;
  opts.shard.config = tunnel_config();
  opts.shard.seed = 1;
  opts.shard.trace_origin = 1;
  std::uint64_t acked = 0;
  core::ShardedNode::Callbacks cbs;
  cbs.on_delivery = [&](std::uint32_t, std::uint64_t,
                        core::DeliveryStatus status) {
    if (status == core::DeliveryStatus::kAcked) ++acked;
  };
  core::ShardedNode node{std::move(transport), opts, cbs};
  node.add_initiator(/*assoc_id=*/1, /*peer=*/peer_port, tunnel_config());
  node.start(1);

  const std::uint64_t deadline = udp->now_us() + 30'000'000ull;
  while (node.established_count() == 0 && udp->now_us() < deadline) {
    node.poll(5);
    recorder.drain();
  }
  if (node.established_count() == 0) _exit(72);

  const auto payload = crypto::as_bytes("merge-test datagram");
  for (int i = 0; i < kMessages; ++i) {
    const std::uint64_t want = acked + 1;
    node.submit(1, crypto::Bytes(payload.begin(), payload.end()));
    while (acked < want && udp->now_us() < deadline) {
      node.poll(5);
      recorder.drain();
    }
  }
  recorder.finalize();

  // Live span-derived RTT: S2 first send -> last accepted A2, per round.
  SpanBuilder spans;
  spans.ingest_new(ring);
  std::vector<double> rtts;
  for (const RoundSpan& span : spans.spans()) {
    if (span.s2_first_sent_us != RoundSpan::kUnset &&
        span.last_a2_us != RoundSpan::kUnset &&
        span.last_a2_us > span.s2_first_sent_us) {
      rtts.push_back(
          static_cast<double>(span.last_a2_us - span.s2_first_sent_us));
    }
  }
  SenderReport report;
  report.acked = acked;
  if (!rtts.empty()) {
    std::sort(rtts.begin(), rtts.end());
    report.live_rtt_med_us = rtts[rtts.size() / 2];
  }
  install(nullptr);
  if (::write(report_fd, &report, sizeof(report)) != sizeof(report)) _exit(73);
  _exit(acked == kMessages ? 0 : 74);
}

double median_of(std::vector<double> v) {
  EXPECT_FALSE(v.empty());
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

TEST(FlightMerge, TwoProcessUdpRecordingsMergeIntoOneTimeline) {
  const std::string dir_a = fresh_dir("a");
  const std::string dir_b = fresh_dir("b");

  int b_pipe[2], a_pipe[2];
  ASSERT_EQ(::pipe(b_pipe), 0);
  ASSERT_EQ(::pipe(a_pipe), 0);

  const pid_t pid_b = ::fork();
  ASSERT_GE(pid_b, 0);
  if (pid_b == 0) {
    ::close(b_pipe[0]);
    ::close(a_pipe[0]);
    ::close(a_pipe[1]);
    run_receiver(dir_b, b_pipe[1]);
  }
  ::close(b_pipe[1]);
  std::uint16_t port_b = 0;
  ASSERT_EQ(::read(b_pipe[0], &port_b, sizeof(port_b)),
            static_cast<ssize_t>(sizeof(port_b)));
  ::close(b_pipe[0]);
  ASSERT_NE(port_b, 0);

  const pid_t pid_a = ::fork();
  ASSERT_GE(pid_a, 0);
  if (pid_a == 0) {
    ::close(a_pipe[0]);
    run_sender(dir_a, port_b, a_pipe[1]);
  }
  ::close(a_pipe[1]);
  SenderReport report;
  ASSERT_EQ(::read(a_pipe[0], &report, sizeof(report)),
            static_cast<ssize_t>(sizeof(report)));
  ::close(a_pipe[0]);

  int status = 0;
  ASSERT_EQ(::waitpid(pid_a, &status, 0), pid_a);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "sender status " << status;
  ASSERT_EQ(::waitpid(pid_b, &status, 0), pid_b);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "receiver status " << status;
  ASSERT_EQ(report.acked, static_cast<std::uint64_t>(kMessages));
  ASSERT_GT(report.live_rtt_med_us, 0.0);

  FlightRecording rec_a, rec_b;
  std::string err;
  ASSERT_TRUE(read_flight_dir(dir_a, rec_a, &err)) << err;
  ASSERT_TRUE(read_flight_dir(dir_b, rec_b, &err)) << err;
  EXPECT_EQ(rec_a.node_id(), 1u);
  EXPECT_EQ(rec_b.node_id(), 2u);
  EXPECT_EQ(rec_a.segments.back().header.finalized, 1u);
  EXPECT_EQ(rec_b.segments.back().header.finalized, 1u);

  // Uncorrected, the injected skew destroys causality on the B->A leg:
  // B stamps its sends ~2 s in the future, so A receives "before" B sent.
  {
    std::vector<double> rev_raw;
    std::map<std::uint64_t, std::uint64_t> b_sent, a_recv;
    const auto key = [](const Event& e) {
      return (static_cast<std::uint64_t>(e.assoc_id) << 40) ^
             (static_cast<std::uint64_t>(e.seq) << 8) ^ e.packet_type;
    };
    for (const FlightSegment& seg : rec_b.segments) {
      for (const Event& e : seg.events) {
        if (e.kind == EventKind::kTransportSent) {
          b_sent.emplace(key(e), flight_wall_us(seg.header, e.time_us));
        }
      }
    }
    for (const FlightSegment& seg : rec_a.segments) {
      for (const Event& e : seg.events) {
        if (e.kind == EventKind::kTransportReceived) {
          a_recv.emplace(key(e), flight_wall_us(seg.header, e.time_us));
        }
      }
    }
    for (const auto& [k, sent] : b_sent) {
      const auto it = a_recv.find(k);
      if (it != a_recv.end()) {
        rev_raw.push_back(static_cast<double>(it->second) -
                          static_cast<double>(sent));
      }
    }
    ASSERT_FALSE(rev_raw.empty());
    EXPECT_LT(median_of(rev_raw), 0.0) << "skew injection had no effect?";
  }

  MergeResult merged;
  ASSERT_TRUE(merge_recordings({rec_a, rec_b}, merged, &err)) << err;
  ASSERT_EQ(merged.links.size(), 1u);
  const ClockLink& link = merged.links.front();
  EXPECT_EQ(link.node_id, 2u);
  ASSERT_TRUE(link.refined) << "no matched send/receive pairs";
  EXPECT_GE(link.matched_pairs, static_cast<std::size_t>(kMessages));

  // (a) The estimator recovers the injected skew. Tolerance: half the live
  // RTT (the asymmetry bound of the two-sample estimate) plus scheduling
  // noise -- orders of magnitude below the 2 s skew.
  const double skew_err =
      std::abs(link.offset_us - static_cast<double>(kSkewUs));
  EXPECT_LT(skew_err, report.live_rtt_med_us / 2.0 + 5000.0)
      << "estimated offset " << link.offset_us;

  // (b) Corrected one-way latency is positive and physically sensible.
  EXPECT_GT(link.latency_us, 0.0);

  // (c) Merged hop latency vs the live span-derived value: the round trip
  // reassembled from the two recordings (forward + reverse medians =
  // 2 * latency_us) must agree with the RTT the sender's own span builder
  // measured live, within 5% (plus a small absolute floor for scheduler
  // jitter on sub-millisecond loopback numbers).
  const double merged_rtt = 2.0 * link.latency_us;
  const double tolerance =
      std::max(0.05 * report.live_rtt_med_us, 250.0);
  EXPECT_NEAR(merged_rtt, report.live_rtt_med_us, tolerance);

  // The merged timeline interleaves both nodes in corrected order, and
  // spans reconstruct across processes: A's sends + B's deliveries.
  ASSERT_EQ(merged.timeline.size(),
            rec_a.total_events() + rec_b.total_events());
  bool saw_a = false, saw_b = false;
  std::uint64_t prev_wall = 0;
  SpanBuilder spans;
  for (const MergedEvent& me : merged.timeline) {
    saw_a |= me.node_id == 1;
    saw_b |= me.node_id == 2;
    EXPECT_GE(me.wall_us, prev_wall);
    prev_wall = me.wall_us;
    spans.ingest(me.event);
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
  EXPECT_EQ(spans.deliveries(), static_cast<std::uint64_t>(kMessages));
}

}  // namespace
}  // namespace alpha::trace
