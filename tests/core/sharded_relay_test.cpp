// Sharded relay demux: relay bindings distributed across ShardedNode
// workers by assoc-id hash, verified over the deterministic simulator.
//
//  * end-to-end delivery through a multi-worker relay, with every worker
//    owning (and actually relaying) its slice of the associations;
//  * relay_batch=1 vs relay_batch=N bindings produce identical relay
//    counters on identical traffic, also under seeded chaos (loss +
//    jitter). The simulator always drives inline and flushes after every
//    frame, so these comparisons check the binding API at any flush size,
//    not batching itself; batched flushes are exercised by the threaded
//    drive and the RelayPipeline equivalence suite;
//  * 1-worker vs 4-worker runs agree on the aggregate relay counters;
//  * the relay_pending queue-depth gauge drains to zero at quiescence.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "core/path.hpp"
#include "net/network.hpp"
#include "net/udp.hpp"
#include "test_bus.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using net::kMillisecond;
using net::kSecond;
using testing::SeedReporter;
using testing::chaos_seed;

Config relay_config() {
  Config config;
  config.reliable = true;
  config.rto_us = 200 * kMillisecond;
  config.max_retries = 50;
  return config;
}

std::vector<std::uint32_t> assoc_ids(std::size_t n) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<std::uint32_t>(i + 1);
  }
  return ids;
}

/// Host A (node 0) -- relay (node 2, relay bindings across `relay_workers`
/// shards) -- host B (node 1), wired by ProtectedPath. A peers with the
/// relay; the relay's bindings forward between the end nodes; B accepts
/// inbound and answers toward the relay.
struct RelayTriad {
  net::Simulator sim;
  net::Network network;
  std::map<std::uint32_t, std::vector<Bytes>> at_b;
  std::map<std::uint32_t, std::vector<std::uint64_t>> acked;
  std::optional<ProtectedPath> path;
  ShardedNode* a = nullptr;
  ShardedNode* b = nullptr;
  ShardedNode* relay = nullptr;

  RelayTriad(std::uint32_t relay_workers, std::size_t relay_batch,
             const Config& config, const std::vector<std::uint32_t>& ids,
             std::uint64_t chaos = 0, double loss = 0.0)
      : network(sim, /*seed=*/1337) {
    if (chaos != 0) network.set_chaos_seed(chaos);
    network.add_node(0);
    network.add_node(1);
    network.add_node(2);
    net::LinkConfig link;
    link.latency = 2 * kMillisecond;
    link.jitter = chaos != 0 ? 3 * kMillisecond : net::SimTime{0};
    link.loss_rate = loss;
    network.add_link(0, 2, link);
    network.add_link(2, 1, link);

    ProtectedPath::End a_end;
    a_end.options.shard.config = config;
    a_end.callbacks.on_delivery = [this](std::uint32_t assoc,
                                         std::uint64_t cookie,
                                         DeliveryStatus status) {
      if (status == DeliveryStatus::kAcked) acked[assoc].push_back(cookie);
    };
    ProtectedPath::End b_end;
    b_end.options.shard.config = config;
    b_end.options.shard.accept_inbound = true;
    b_end.callbacks.on_message = [this](std::uint32_t assoc,
                                        crypto::ByteView payload) {
      at_b[assoc].emplace_back(payload.begin(), payload.end());
    };
    ProtectedPath::Relays relays;
    relays.options.shard.config = config;
    relays.options.workers = relay_workers;
    relays.assoc_ids = ids;
    relays.relay_batch = relay_batch;
    path.emplace(network, std::vector<net::NodeId>{0, 2, 1}, /*seed=*/7,
                 std::move(a_end), std::move(b_end), std::move(relays));
    a = &path->initiator_node();
    b = &path->responder_node();
    relay = &path->node(1);
  }

  void run(const std::vector<std::uint32_t>& ids) {
    for (const auto id : ids) a->add_initiator(id, path->next_hop());
    for (const auto id : ids) a->start(id);
    sim.run_until(10 * kSecond);
    for (const auto id : ids) {
      a->submit(id, Bytes(48, static_cast<std::uint8_t>(id)));
    }
    sim.run_until(60 * kSecond);
  }
};

TEST(ShardedRelayTest, DeliversThroughMultiWorkerBatchedRelay) {
  const auto ids = assoc_ids(12);
  RelayTriad triad(/*relay_workers=*/4, /*relay_batch=*/32, relay_config(),
                   ids);

  // The id set must exercise every relay shard for the test to mean
  // anything.
  std::set<std::uint32_t> covered;
  for (const auto id : ids) covered.insert(triad.relay->shard_for(id));
  ASSERT_EQ(covered.size(), 4u);

  triad.run(ids);

  for (const auto id : ids) {
    ASSERT_EQ(triad.at_b[id].size(), 1u) << "assoc " << id;
    EXPECT_EQ(triad.at_b[id][0], Bytes(48, static_cast<std::uint8_t>(id)));
    ASSERT_EQ(triad.acked[id].size(), 1u) << "assoc " << id;
  }

  NodeSnapshot snap = triad.relay->snapshot();
  EXPECT_GT(snap.relay.forwarded, 0u);
  EXPECT_EQ(snap.relay.dropped_invalid, 0u);
  // The pipeline instruments its flush latency.
  EXPECT_GT(snap.relay.verify_batch_ns.count(), 0u);
  EXPECT_GT(snap.relay.verify_batch_frames, 0u);

  // Each worker relayed its own slice: per-shard routed-frame counters are
  // all nonzero, and the pending gauges drained at quiescence.
  for (const auto& st : triad.relay->shard_stats()) {
    EXPECT_GT(st.frames_routed, 0u) << "shard " << st.shard;
    EXPECT_EQ(st.relay_pending, 0u) << "shard " << st.shard;
  }
}

TEST(ShardedRelayTest, FlushPerFrameAndBatchedBindingsAgree) {
  const auto ids = assoc_ids(8);
  RelayTriad per_frame(/*relay_workers=*/2, /*relay_batch=*/1, relay_config(),
                       ids);
  RelayTriad batched(/*relay_workers=*/2, /*relay_batch=*/32, relay_config(),
                     ids);
  per_frame.run(ids);
  batched.run(ids);

  EXPECT_EQ(per_frame.at_b, batched.at_b);
  EXPECT_EQ(per_frame.acked, batched.acked);

  const NodeSnapshot s = per_frame.relay->snapshot();
  const NodeSnapshot b = batched.relay->snapshot();
  EXPECT_EQ(s.relay.forwarded, b.relay.forwarded);
  EXPECT_EQ(s.relay.dropped_invalid, b.relay.dropped_invalid);
  EXPECT_EQ(s.relay.dropped_unsolicited, b.relay.dropped_unsolicited);
  EXPECT_EQ(s.relay.messages_extracted, b.relay.messages_extracted);
  EXPECT_EQ(s.relay.acks_verified, b.relay.acks_verified);
  EXPECT_EQ(s.relay.hashes.signature, b.relay.hashes.signature);
  EXPECT_EQ(s.relay.hashes.chain_verify, b.relay.hashes.chain_verify);
  EXPECT_EQ(s.relay.hashes.ack, b.relay.hashes.ack);
  for (std::size_t i = 0; i < trace::kDropReasonCount; ++i) {
    EXPECT_EQ(s.relay.dropped_by_reason[i], b.relay.dropped_by_reason[i])
        << "drop reason " << i;
  }
}

TEST(ShardedRelayTest, WorkerCountDoesNotChangeRelayDecisions) {
  const auto ids = assoc_ids(10);
  RelayTriad one(/*relay_workers=*/1, /*relay_batch=*/16, relay_config(),
                 ids);
  RelayTriad four(/*relay_workers=*/4, /*relay_batch=*/16, relay_config(),
                  ids);
  one.run(ids);
  four.run(ids);

  EXPECT_EQ(one.at_b, four.at_b);
  EXPECT_EQ(one.acked, four.acked);

  const NodeSnapshot s1 = one.relay->snapshot();
  const NodeSnapshot s4 = four.relay->snapshot();
  EXPECT_EQ(s1.relay.forwarded, s4.relay.forwarded);
  EXPECT_EQ(s1.relay.dropped_invalid, s4.relay.dropped_invalid);
  EXPECT_EQ(s1.relay.dropped_unsolicited, s4.relay.dropped_unsolicited);
  EXPECT_EQ(s1.relay.messages_extracted, s4.relay.messages_extracted);
}

TEST(ShardedRelayTest, SeededChaosKeepsFlushPerFrameAndBatchedIdentical) {
  const auto ids = assoc_ids(6);
  const std::uint64_t seed = chaos_seed(/*fallback=*/0x51abfeed);
  SeedReporter reporter(seed);
  RelayTriad per_frame(/*relay_workers=*/4, /*relay_batch=*/1, relay_config(),
                       ids, seed, /*loss=*/0.10);
  RelayTriad batched(/*relay_workers=*/4, /*relay_batch=*/64, relay_config(),
                     ids, seed, /*loss=*/0.10);
  per_frame.run(ids);
  batched.run(ids);

  // The batched pipeline flushes within the same virtual instant its frames
  // arrived, so the network-visible schedule -- and therefore the chaos the
  // seed deals out -- is identical: the two runs must match exactly.
  EXPECT_EQ(per_frame.at_b, batched.at_b);
  EXPECT_EQ(per_frame.acked, batched.acked);
  const NodeSnapshot s = per_frame.relay->snapshot();
  const NodeSnapshot b = batched.relay->snapshot();
  EXPECT_EQ(s.relay.forwarded, b.relay.forwarded);
  EXPECT_EQ(s.relay.dropped_invalid, b.relay.dropped_invalid);
  EXPECT_EQ(s.relay.dropped_unsolicited, b.relay.dropped_unsolicited);
  for (std::size_t i = 0; i < trace::kDropReasonCount; ++i) {
    EXPECT_EQ(s.relay.dropped_by_reason[i], b.relay.dropped_by_reason[i])
        << "drop reason " << i;
  }
  // Chaos actually happened: at 10% loss some frames were retransmitted.
  EXPECT_GT(per_frame.relay->snapshot().frames_in, ids.size() * 6);
}

TEST(ShardedRelayTest, AddRelayAfterLaunchThrows) {
  // Threaded (UDP) mode: the worker launch is what locks the topology.
  ShardedNode::Options opts;
  opts.workers = 2;
  ShardedNode node(std::make_unique<net::UdpTransport>(), opts);
  node.poll(0);  // forces the runtime up
  EXPECT_THROW(node.add_relay(/*upstream=*/1, /*downstream=*/2, {1, 2, 3}),
               std::logic_error);
}

}  // namespace
}  // namespace alpha::core
