// Node runtime on one shard: association demux, on-demand accept, timer
// wheel -- over the simulator and, with workers = 0, over real sockets on
// the calling thread.
#include "core/sharded_node.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>

#include "core/timer_wheel.hpp"
#include "net/network.hpp"
#include "trace/trace.hpp"
#include "wire/packets.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;

// ------------------------------------------------------------- timer wheel

TEST(TimerWheelTest, FiresOnceDeadlinePasses) {
  TimerWheel wheel{10, 8};
  std::vector<std::uint32_t> due;
  wheel.arm(1, 95);
  EXPECT_EQ(wheel.armed(), 1u);

  wheel.advance(89, due);
  EXPECT_TRUE(due.empty());  // 95 not reached yet
  wheel.advance(100, due);
  EXPECT_EQ(due, (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(wheel.empty());

  // Does not fire twice.
  due.clear();
  wheel.advance(1000, due);
  EXPECT_TRUE(due.empty());
}

TEST(TimerWheelTest, PastDeadlineStillFiresOnNextTick) {
  TimerWheel wheel{10, 8};
  std::vector<std::uint32_t> due;
  wheel.advance(200, due);  // cursor well past zero
  wheel.arm(7, 50);         // deadline already in the past
  due.clear();
  wheel.advance(220, due);  // next tick after the cursor
  EXPECT_EQ(due, (std::vector<std::uint32_t>{7}));
}

TEST(TimerWheelTest, EntryBeyondOneRevolutionSurvivesEarlySlotVisits) {
  TimerWheel wheel{10, 4};  // horizon: 40 us per revolution
  std::vector<std::uint32_t> due;
  wheel.arm(3, 450);  // many laps out
  for (std::uint64_t t = 10; t < 450; t += 10) {
    wheel.advance(t, due);
    EXPECT_TRUE(due.empty()) << "fired early at t=" << t;
  }
  wheel.advance(450, due);
  EXPECT_EQ(due, (std::vector<std::uint32_t>{3}));
}

TEST(TimerWheelTest, FarJumpScansEachSlotOnceAndFiresEverything) {
  TimerWheel wheel{10, 4};
  std::vector<std::uint32_t> due;
  wheel.arm(1, 15);
  wheel.arm(2, 35);
  wheel.arm(3, 390);
  wheel.advance(1'000'000, due);  // thousands of ticks in one call
  ASSERT_EQ(due.size(), 3u);
  EXPECT_TRUE(wheel.empty());
}

// ------------------------------------------------- demux over the simulator

Config reliable_config() {
  Config config;
  config.reliable = true;
  config.rto_us = 200'000;
  return config;
}

TEST(ShardedNodeSimTest, TwoAssociationsInterleaveOverOneTransport) {
  net::Simulator sim;
  net::Network network{sim, 3};
  network.add_node(0);
  network.add_node(1);
  net::LinkConfig link;
  link.latency = net::kMillisecond;
  network.add_link(0, 1, link);

  const Config config = reliable_config();
  ShardedNode::Options a_opts;
  a_opts.shard.config = config;
  a_opts.shard.seed = 7;
  std::map<std::uint32_t, std::size_t> acked;
  ShardedNode::Callbacks a_cbs;
  a_cbs.on_delivery = [&](std::uint32_t assoc, std::uint64_t,
                          DeliveryStatus status) {
    if (status == DeliveryStatus::kAcked) ++acked[assoc];
  };
  ShardedNode node_a{std::make_unique<net::SimTransport>(network, 0),
                     a_opts, a_cbs};

  ShardedNode::Options b_opts;
  b_opts.shard.config = config;
  b_opts.shard.seed = 8;
  b_opts.shard.accept_inbound = true;
  std::map<std::uint32_t, std::vector<Bytes>> at_b;
  ShardedNode::Callbacks b_cbs;
  b_cbs.on_message = [&](std::uint32_t assoc, crypto::ByteView payload) {
    at_b[assoc].emplace_back(payload.begin(), payload.end());
  };
  ShardedNode node_b{std::make_unique<net::SimTransport>(network, 1),
                     b_opts, b_cbs};

  node_a.add_initiator(1, /*peer=*/1, config);
  node_a.add_initiator(2, /*peer=*/1, config);
  node_a.start(1);
  node_a.start(2);
  sim.run_until(5 * net::kSecond);
  ASSERT_EQ(node_a.established_count(), 2u);
  ASSERT_EQ(node_b.established_count(), 2u);
  EXPECT_EQ(node_b.snapshot().accepted_handshakes, 2u);

  // Interleave submissions across the two associations.
  node_a.submit(1, Bytes(100, 0x11));
  node_a.submit(2, Bytes(200, 0x22));
  node_a.submit(1, Bytes(100, 0x11));
  node_a.submit(2, Bytes(200, 0x22));
  sim.run_until(15 * net::kSecond);

  // Each association delivered exactly its own payloads.
  ASSERT_EQ(at_b[1].size(), 2u);
  ASSERT_EQ(at_b[2].size(), 2u);
  for (const auto& m : at_b[1]) EXPECT_EQ(m, Bytes(100, 0x11));
  for (const auto& m : at_b[2]) EXPECT_EQ(m, Bytes(200, 0x22));
  EXPECT_EQ(acked[1], 2u);
  EXPECT_EQ(acked[2], 2u);

  const auto snap = node_b.snapshot(/*per_assoc=*/true);
  EXPECT_EQ(snap.associations, 2u);
  EXPECT_EQ(snap.messages_delivered, 4u);
  EXPECT_EQ(snap.demux_misses, 0u);
  EXPECT_EQ(snap.malformed_frames, 0u);
  ASSERT_EQ(snap.assocs.size(), 2u);
  for (const auto& a : snap.assocs) {
    EXPECT_GT(a.frames_in, 0u);
    EXPECT_GT(a.frames_out, 0u);
    EXPECT_TRUE(a.established);
    EXPECT_FALSE(a.initiator);
  }
}

TEST(ShardedNodeSimTest, MalformedAndUnknownFramesAreCounted) {
  net::Simulator sim;
  net::Network network{sim, 3};
  network.add_node(0);
  network.add_node(1);
  network.add_link(0, 1);

  ShardedNode::Options opts;  // accept_inbound off, no associations
  ShardedNode node{std::make_unique<net::SimTransport>(network, 1), opts};

  net::SimTransport injector{network, 0};
  injector.send(1, Bytes{0xff});  // garbage: assoc-id peek fails

  wire::A1Packet stray;  // valid frame for an association nobody serves
  stray.hdr = {9, 1};
  stray.ack_element = crypto::Digest{crypto::ByteView{Bytes(20, 0x33)}};
  injector.send(1, stray.encode());

  wire::HandshakePacket hs;  // HS1 is not accepted either with accept off
  hs.hdr = {10, 0};
  hs.sig_anchor = crypto::Digest{crypto::ByteView{Bytes(20, 0x44)}};
  hs.ack_anchor = crypto::Digest{crypto::ByteView{Bytes(20, 0x55)}};
  hs.chain_length = 8;
  injector.send(1, hs.encode());

  sim.run_until(net::kSecond);
  const auto snap = node.snapshot();
  EXPECT_EQ(snap.frames_in, 3u);
  EXPECT_EQ(snap.malformed_frames, 1u);
  EXPECT_EQ(snap.demux_misses, 2u);
  EXPECT_EQ(snap.associations, 0u);
  EXPECT_EQ(snap.accepted_handshakes, 0u);
}

TEST(ShardedNodeSimTest, TimerWheelGoesIdleAfterQuiescence) {
  net::Simulator sim;
  net::Network network{sim, 3};
  network.add_node(0);
  network.add_node(1);
  network.add_link(0, 1);

  const Config config = reliable_config();
  ShardedNode::Options a_opts;
  a_opts.shard.config = config;
  a_opts.shard.seed = 21;
  ShardedNode node_a{std::make_unique<net::SimTransport>(network, 0),
                     a_opts};
  ShardedNode::Options b_opts;
  b_opts.shard.config = config;
  b_opts.shard.seed = 22;
  b_opts.shard.accept_inbound = true;
  ShardedNode node_b{std::make_unique<net::SimTransport>(network, 1),
                     b_opts};

  node_a.add_initiator(1, 1, config);
  node_a.start(1);
  sim.run_until(5 * net::kSecond);
  ASSERT_EQ(node_a.established_count(), 1u);
  node_a.submit(1, Bytes(64, 0x42));
  sim.run_until(30 * net::kSecond);  // message + ack fully drain

  // Idle associations disarm: no timer fires while nothing is pending.
  const std::uint64_t fires_a = node_a.snapshot().timer_fires;
  const std::uint64_t fires_b = node_b.snapshot().timer_fires;
  sim.run_until(300 * net::kSecond);
  EXPECT_EQ(node_a.snapshot().timer_fires, fires_a);
  EXPECT_EQ(node_b.snapshot().timer_fires, fires_b);

  // And activity re-arms: another message still goes through.
  node_a.submit(1, Bytes(64, 0x43));
  sim.run_until(330 * net::kSecond);
  EXPECT_EQ(node_b.snapshot().messages_delivered, 2u);
}

TEST(ShardedNodeSimTest, BatchedRelayEventsCarryRelayOriginAndFrameTime) {
  // A relay binding with a batch above 1 flushes in flush_relays(), after
  // on_frame() returns; its trace events must still name the relay node and
  // the frame's arrival time, as a flush-per-frame binding's do.
  net::Simulator sim;
  net::Network network{sim, 3};
  net::LinkConfig link;
  link.latency = net::kMillisecond;
  for (net::NodeId id = 0; id <= 2; ++id) network.add_node(id);
  network.add_link(0, 1, link);
  network.add_link(1, 2, link);

  const Config config = reliable_config();
  ShardedNode::Options a_opts;
  a_opts.shard.config = config;
  a_opts.shard.seed = 41;
  ShardedNode node_a{std::make_unique<net::SimTransport>(network, 0),
                     a_opts};
  ShardedNode::Options r_opts;
  r_opts.shard.config = config;
  r_opts.shard.trace_origin = 7;
  ShardedNode relay{std::make_unique<net::SimTransport>(network, 1), r_opts};
  relay.add_relay(/*upstream=*/0, /*downstream=*/2, /*assoc_ids=*/{1},
                  /*relay_batch=*/32);
  ShardedNode::Options b_opts;
  b_opts.shard.config = config;
  b_opts.shard.seed = 42;
  b_opts.shard.accept_inbound = true;
  ShardedNode node_b{std::make_unique<net::SimTransport>(network, 2),
                     b_opts};

  trace::Ring ring{1 << 12};
  trace::install(&ring);
  node_a.add_initiator(1, /*peer=*/1, config);
  node_a.start(1);
  sim.run_until(net::kSecond);
  node_a.submit(1, Bytes(64, 0x5a));
  sim.run_until(2 * net::kSecond);
  trace::install(nullptr);

  ASSERT_EQ(node_b.snapshot().messages_delivered, 1u);
  std::size_t forwarded = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const trace::Event& e = ring.at(i);
    if (e.kind != trace::EventKind::kRelayForwarded) continue;
    ++forwarded;
    EXPECT_EQ(e.origin, 7u);
    EXPECT_GT(e.time_us, 0u);  // every frame crosses a 1 ms link first
  }
  EXPECT_EQ(forwarded, relay.snapshot().relay.forwarded);
  EXPECT_GT(forwarded, 0u);
}

// ----------------------------------------------- demux over real UDP sockets

TEST(ShardedNodeUdpTest, TwoAssociationsCrossFedOverRealSockets) {
  using Clock = std::chrono::steady_clock;
  const Config config = reliable_config();

  // workers = 0: both nodes run on this thread, inside poll().
  ShardedNode::Options a_opts;
  a_opts.workers = 0;
  a_opts.shard.config = config;
  a_opts.shard.seed = 31;
  std::map<std::uint32_t, std::size_t> acked;
  ShardedNode::Callbacks a_cbs;
  a_cbs.on_delivery = [&](std::uint32_t assoc, std::uint64_t,
                          DeliveryStatus status) {
    if (status == DeliveryStatus::kAcked) ++acked[assoc];
  };
  ShardedNode node_a{std::make_unique<net::UdpTransport>(), a_opts, a_cbs};

  ShardedNode::Options b_opts;
  b_opts.workers = 0;
  b_opts.shard.config = config;
  b_opts.shard.seed = 32;
  b_opts.shard.accept_inbound = true;
  std::map<std::uint32_t, std::vector<Bytes>> at_b;
  ShardedNode::Callbacks b_cbs;
  b_cbs.on_message = [&](std::uint32_t assoc, crypto::ByteView payload) {
    at_b[assoc].emplace_back(payload.begin(), payload.end());
  };
  ShardedNode node_b{std::make_unique<net::UdpTransport>(), b_opts, b_cbs};

  EXPECT_FALSE(node_a.threaded());
  EXPECT_FALSE(node_b.threaded());
  const auto b_port =
      static_cast<net::UdpTransport&>(node_b.transport()).port();
  node_a.add_initiator(1, b_port, config);
  node_a.add_initiator(2, b_port, config);
  node_a.start(1);
  node_a.start(2);
  // Both handshakes and both payload exchanges share the two sockets; the
  // runtimes demux the interleaved frames by association id.
  node_a.submit(1, Bytes(100, 0xa1));
  node_a.submit(2, Bytes(200, 0xa2));

  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while ((acked[1] < 1 || acked[2] < 1) && Clock::now() < deadline) {
    node_a.poll(2);
    node_b.poll(2);
  }

  ASSERT_EQ(node_a.established_count(), 2u);
  ASSERT_EQ(node_b.established_count(), 2u);
  ASSERT_EQ(at_b[1].size(), 1u);
  ASSERT_EQ(at_b[2].size(), 1u);
  EXPECT_EQ(at_b[1][0], Bytes(100, 0xa1));
  EXPECT_EQ(at_b[2][0], Bytes(200, 0xa2));
  EXPECT_EQ(acked[1], 1u);
  EXPECT_EQ(acked[2], 1u);
  const auto snap = node_b.snapshot();
  EXPECT_EQ(snap.accepted_handshakes, 2u);
  EXPECT_EQ(snap.demux_misses, 0u);
}

}  // namespace
}  // namespace alpha::core
