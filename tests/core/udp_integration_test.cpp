// End-to-end over real UDP sockets: three node runtimes on the loopback
// interface -- host A, a verifying relay node, host B -- each polling its
// own UdpTransport on the test thread (workers = 0). The relay runtime demuxes by association id and derives
// the relay direction from the source port; host B accepts the inbound
// handshake on demand.
#include <gtest/gtest.h>

#include <chrono>

#include "core/sharded_node.hpp"
#include "net/udp.hpp"
#include "wire/packets.hpp"

namespace alpha::core {
namespace {

using Clock = std::chrono::steady_clock;

std::uint16_t port_of(ShardedNode& node) {
  return static_cast<net::UdpTransport&>(node.transport()).port();
}

// No worker threads: the node runs on the thread that calls poll().
ShardedNode::Options caller_thread_options(const Config& config,
                                           std::uint64_t seed = 1) {
  ShardedNode::Options o;
  o.workers = 0;
  o.shard.config = config;
  o.shard.seed = seed;
  return o;
}

TEST(UdpIntegrationTest, HostsExchangeThroughVerifyingRelay) {
  Config config;
  config.reliable = true;
  config.rto_us = 200'000;

  ShardedNode relay_node{std::make_unique<net::UdpTransport>(),
                         caller_thread_options(config)};

  bool acked = false;
  ShardedNode::Callbacks a_cbs;
  a_cbs.on_delivery = [&](std::uint32_t, std::uint64_t,
                          DeliveryStatus status) {
    acked = status == DeliveryStatus::kAcked;
  };
  ShardedNode node_a{std::make_unique<net::UdpTransport>(),
                     caller_thread_options(config, 1), a_cbs};

  ShardedNode::Options b_opts = caller_thread_options(config, 2);
  b_opts.shard.accept_inbound = true;
  std::vector<crypto::Bytes> at_b;
  ShardedNode::Callbacks b_cbs;
  b_cbs.on_message = [&](std::uint32_t, crypto::ByteView payload) {
    at_b.emplace_back(payload.begin(), payload.end());
  };
  ShardedNode node_b{std::make_unique<net::UdpTransport>(), b_opts, b_cbs};

  relay_node.add_relay(/*upstream=*/port_of(node_a),
                       /*downstream=*/port_of(node_b), /*assoc_ids=*/{});
  const Host& host_a = node_a.add_initiator(
      /*assoc_id=*/1, /*peer=*/port_of(relay_node), config);
  node_a.start(1);
  node_a.submit(1, crypto::Bytes(500, 0x5e));

  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!acked && Clock::now() < deadline) {
    node_a.poll(2);
    relay_node.poll(2);
    node_b.poll(2);
  }

  ASSERT_TRUE(host_a.established());
  const auto b_snap = node_b.snapshot(/*per_assoc=*/true);
  ASSERT_EQ(b_snap.assocs.size(), 1u);
  ASSERT_TRUE(b_snap.assocs[0].established);
  EXPECT_EQ(b_snap.accepted_handshakes, 1u);
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0].size(), 500u);
  EXPECT_TRUE(acked);
  const RelayStats relay = relay_node.snapshot().relay;
  EXPECT_EQ(relay.dropped_invalid, 0u);
  EXPECT_EQ(relay.messages_extracted, 1u);
}

TEST(UdpIntegrationTest, RelayDropsForgedFramesOnRealSockets) {
  ShardedNode relay_node{std::make_unique<net::UdpTransport>(),
                         caller_thread_options(Config{})};

  net::UdpEndpoint sock_attacker, sock_sink;
  relay_node.add_relay(/*upstream=*/sock_attacker.port(),
                       /*downstream=*/sock_sink.port(), /*assoc_ids=*/{});

  // Forged S2 with no handshake/S1 context arrives over a real socket.
  wire::S2Packet forged;
  forged.hdr = {1, 5};
  forged.mode = wire::Mode::kBase;
  forged.disclosed_element =
      crypto::Digest{crypto::ByteView{crypto::Bytes(20, 0x99)}};
  forged.payload = crypto::Bytes(100, 0xaa);
  sock_attacker.send_to(port_of(relay_node), forged.encode());

  const auto deadline = Clock::now() + std::chrono::seconds(2);
  while (relay_node.snapshot().frames_in == 0 && Clock::now() < deadline) {
    relay_node.poll(2);
  }

  const auto snap = relay_node.snapshot();
  EXPECT_EQ(snap.frames_in, 1u);
  EXPECT_EQ(snap.relay.dropped_unsolicited, 1u);
  EXPECT_EQ(snap.relay.forwarded, 0u);
  // Nothing must have leaked past the relay.
  EXPECT_FALSE(sock_sink.receive(50).has_value());
}

}  // namespace
}  // namespace alpha::core
