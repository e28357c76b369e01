// Quickstart: the smallest complete ALPHA session, on the node runtime.
//
// Four ShardedNode runtimes on a three-hop simulated path (signer, two relays,
// verifier), all talking through the Transport abstraction: bootstrap
// handshake (the verifier end accepts it on demand), one reliable message,
// and a look at the statistics each runtime collected.
//
//   $ ./quickstart
#include <cstdio>

#include "core/sharded_node.hpp"
#include "net/network.hpp"

using namespace alpha;

int main() {
  net::Simulator sim;
  net::Network network{sim, /*seed=*/1};

  // s --- r1 --- r2 --- v, 5 ms per hop.
  for (net::NodeId id = 0; id <= 3; ++id) network.add_node(id);
  net::LinkConfig link;
  link.latency = 5 * net::kMillisecond;
  for (net::NodeId id = 0; id < 3; ++id) network.add_link(id, id + 1, link);

  core::Config config;
  config.reliable = true;  // S1 -> A1 -> S2 -> A2

  // One runtime node per network node; each owns a SimTransport bound to
  // its NodeId. The same code would run over UdpTransport unchanged.
  core::ShardedNode::Options signer_opts;
  signer_opts.shard.config = config;
  signer_opts.shard.seed = 2024;
  core::ShardedNode::Callbacks signer_cbs;
  std::vector<std::pair<std::uint64_t, core::DeliveryStatus>> deliveries;
  signer_cbs.on_delivery = [&](std::uint32_t, std::uint64_t cookie,
                               core::DeliveryStatus status) {
    deliveries.emplace_back(cookie, status);
  };
  core::ShardedNode signer{std::make_unique<net::SimTransport>(network, 0),
                           signer_opts, signer_cbs};
  core::Host& signer_host =
      signer.add_initiator(/*assoc_id=*/1, /*peer=*/1, config);

  core::ShardedNode::Options relay_opts;
  relay_opts.shard.config = config;
  core::ShardedNode relay1{std::make_unique<net::SimTransport>(network, 1),
                           relay_opts};
  relay1.add_relay(/*upstream=*/0, /*downstream=*/2, /*assoc_ids=*/{});
  core::ShardedNode relay2{std::make_unique<net::SimTransport>(network, 2),
                           relay_opts};
  relay2.add_relay(/*upstream=*/1, /*downstream=*/3, /*assoc_ids=*/{});

  core::ShardedNode::Options verifier_opts;
  verifier_opts.shard.config = config;
  verifier_opts.shard.seed = 2025;
  verifier_opts.shard.accept_inbound = true;  // responder spawned by the HS1
  core::ShardedNode::Callbacks verifier_cbs;
  std::vector<crypto::Bytes> delivered;
  verifier_cbs.on_message = [&](std::uint32_t, crypto::ByteView payload) {
    delivered.emplace_back(payload.begin(), payload.end());
  };
  core::ShardedNode verifier{std::make_unique<net::SimTransport>(network, 3),
                             verifier_opts, verifier_cbs};

  std::printf("== ALPHA quickstart ==\n");
  signer.start(1);
  sim.run_until(net::kSecond);
  std::printf("handshake complete: %s (responder accepted on demand: %s)\n",
              signer.established_count() == 1 ? "yes" : "no",
              verifier.snapshot().accepted_handshakes == 1 ? "yes" : "no");

  const std::string text = "hello, hop-by-hop authenticated world";
  signer.submit(1, crypto::Bytes(text.begin(), text.end()));
  sim.run_until(2 * net::kSecond);

  for (const auto& m : delivered) {
    std::printf("verifier delivered: \"%.*s\"\n", static_cast<int>(m.size()),
                reinterpret_cast<const char*>(m.data()));
  }
  for (const auto& [cookie, status] : deliveries) {
    std::printf("signer: message %llu %s\n",
                static_cast<unsigned long long>(cookie),
                status == core::DeliveryStatus::kAcked ? "acknowledged"
                                                       : "not acknowledged");
  }

  const auto& s = signer_host.signer()->stats();
  std::printf("\nsigner:   S1=%llu S2=%llu acks=%llu hash ops: sig=%llu "
              "chain-verify=%llu ack=%llu\n",
              static_cast<unsigned long long>(s.s1_sent),
              static_cast<unsigned long long>(s.s2_sent),
              static_cast<unsigned long long>(s.acks_received),
              static_cast<unsigned long long>(s.hashes.signature),
              static_cast<unsigned long long>(s.hashes.chain_verify),
              static_cast<unsigned long long>(s.hashes.ack));
  // The responder was spawned on demand; its stats come from a snapshot.
  const auto v = verifier.snapshot(/*per_assoc=*/true).assocs.at(0).verifier;
  std::printf("verifier: delivered=%llu A1=%llu A2=%llu\n",
              static_cast<unsigned long long>(v.messages_delivered),
              static_cast<unsigned long long>(v.a1_sent),
              static_cast<unsigned long long>(v.a2_sent));
  core::ShardedNode* relay_nodes[] = {&relay1, &relay2};
  for (std::size_t i = 0; i < 2; ++i) {
    const auto snap = relay_nodes[i]->snapshot();
    std::printf("relay %zu:  forwarded=%llu extracted=%llu dropped=%llu\n", i,
                static_cast<unsigned long long>(snap.relay.forwarded),
                static_cast<unsigned long long>(snap.relay.messages_extracted),
                static_cast<unsigned long long>(snap.relay.dropped_invalid +
                                                snap.relay.dropped_unsolicited));
  }
  const auto node_snap = signer.snapshot();
  std::printf("runtime:  frames in=%llu out=%llu demux-misses=%llu "
              "timer-fires=%llu\n",
              static_cast<unsigned long long>(node_snap.frames_in),
              static_cast<unsigned long long>(node_snap.frames_out),
              static_cast<unsigned long long>(node_snap.demux_misses),
              static_cast<unsigned long long>(node_snap.timer_fires));
  return delivered.size() == 1 && deliveries.size() == 1 ? 0 : 1;
}
