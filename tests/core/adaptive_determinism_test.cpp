// The adaptivity loop under the deterministic simulator: the controller's
// decision sequence must be a pure function of the seeded schedule --
// bit-identical on replay and, crucially, at ANY worker count. The inline
// ShardedNode drive routes the same frames through different shard layouts
// as `workers` varies; per-association controllers, per-association health
// monitors and per-association signal deltas mean none of that routing can
// leak into a verdict. These tests pin exactly that, plus end-to-end
// convergence: the controller actually promotes on clean channels, demotes
// under loss/partitions, and its reconfigurations land on both ends without
// losing a message.
#include "core/adapt.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/path.hpp"
#include "net/network.hpp"
#include "../support/seed.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using net::kMillisecond;
using net::kSecond;
using alpha::testing::SeedReporter;
using alpha::testing::chaos_seed;

Config adaptive_config() {
  Config config;
  config.reliable = true;
  config.retransmit_on_nack = true;
  config.rto_us = 100 * kMillisecond;
  config.max_retries = 50;
  config.chain_length = 4096;  // room for many reconfig rekeys
  return config;
}

AdaptiveController::Options controller_options() {
  AdaptiveController::Options o;
  o.interval_us = 500 * kMillisecond;
  return o;
}

/// Everything about one association's adaptive trajectory that must replay
/// bit-identically: the controller counters, the rung it ended on, the loss
/// EWMA to the last bit, and the profile both ends actually run.
struct AssocOutcome {
  Mode mode = Mode::kBase;
  std::size_t batch = 0;
  std::uint64_t reconfigs_applied = 0;
  std::uint64_t adapt_evaluations = 0;
  std::uint64_t adapt_switches = 0;
  std::size_t adapt_profile = 0;
  double adapt_loss_ewma = 0.0;
  std::size_t delivered = 0;

  bool operator==(const AssocOutcome&) const = default;
};

struct AdaptiveRunResult {
  std::map<std::uint32_t, AssocOutcome> per_assoc;
  std::uint64_t total_switches = 0;
  std::uint64_t total_reconfigs = 0;

  bool operator==(const AdaptiveRunResult&) const = default;
};

/// One full closed-loop run: `ids` initiator associations with the
/// controller enabled, a clean warmup (promotions), a mid-run partition
/// (loss pressure, demotions), and a clean tail. With chaos_seed == 0 the
/// network draws no randomness at all (no jitter, no loss, partitions are
/// scheduled simulator events), so the run is a pure function of
/// (ids, workers); with a seed it adds Gilbert-Elliott bursts + duplication
/// + reordering on top and is a pure function of (ids, workers, seed).
AdaptiveRunResult adaptive_run(std::uint32_t workers,
                               const std::vector<std::uint32_t>& ids,
                               std::uint64_t seed) {
  net::Simulator sim;
  net::Network network(sim, /*seed=*/1337);
  if (seed != 0) network.set_chaos_seed(seed);
  network.add_node(0);
  network.add_node(1);
  net::LinkConfig link;
  link.latency = 2 * kMillisecond;
  network.add_link(0, 1, link);
  if (seed != 0) {
    net::FaultConfig faults;
    faults.duplicate_rate = 0.1;
    faults.reorder_rate = 0.1;
    net::BurstLossConfig burst;
    burst.p_enter_bad = 0.02;
    burst.p_exit_bad = 0.2;
    burst.loss_bad = 0.5;
    faults.burst = burst;
    network.set_link_faults(0, 1, faults);
  }
  // Loss phase: the path dies for 4 s in the middle of the run. Scheduled
  // in virtual time, so it hits the same protocol state at every worker
  // count.
  network.schedule_partition(0, 1, 30 * kSecond, 4 * kSecond);

  const Config config = adaptive_config();
  std::map<std::uint32_t, std::size_t> delivered;

  ProtectedPath::End a_end;
  a_end.options.shard.config = config;
  a_end.options.shard.adaptive = controller_options();
  a_end.options.workers = workers;
  ProtectedPath::End b_end;
  b_end.options.shard.config = config;
  b_end.options.shard.accept_inbound = true;
  b_end.options.workers = workers;
  b_end.callbacks.on_message = [&delivered](std::uint32_t assoc,
                                            crypto::ByteView) {
    ++delivered[assoc];
  };
  ProtectedPath path{network, {0, 1}, /*seed=*/7, std::move(a_end),
                     std::move(b_end), ProtectedPath::Relays{}};
  ShardedNode& a = path.initiator_node();

  for (const auto id : ids) a.add_initiator(id, path.next_hop());
  for (const auto id : ids) a.start(id);
  sim.run_until(10 * kSecond);
  EXPECT_EQ(a.established_count(), ids.size());

  // Steady trickle across the partition: clean windows before 30 s, pure
  // retransmit pressure during it, clean recovery after.
  int burst_no = 0;
  for (net::SimTime t = 10 * kSecond; t <= 70 * kSecond; t += kSecond) {
    for (const auto id : ids) {
      a.submit(id, Bytes(32, static_cast<std::uint8_t>(burst_no)));
    }
    ++burst_no;
    sim.run_until(t);
  }
  sim.run_until(140 * kSecond);  // drain every retransmission

  AdaptiveRunResult r;
  const NodeSnapshot sa = a.snapshot(/*per_assoc=*/true);
  for (const auto& as : sa.assocs) {
    AssocOutcome o;
    o.mode = as.mode;
    o.batch = as.batch;
    o.reconfigs_applied = as.reconfigs_applied;
    o.adapt_evaluations = as.adapt_evaluations;
    o.adapt_switches = as.adapt_switches;
    o.adapt_profile = as.adapt_profile;
    o.adapt_loss_ewma = as.adapt_loss_ewma;
    o.delivered = delivered[as.assoc_id];
    r.per_assoc[as.assoc_id] = o;
  }
  r.total_switches = sa.adapt_switches;
  r.total_reconfigs = sa.reconfigs_applied;
  return r;
}

TEST(AdaptiveDeterminismTest, ControllerConvergesAndRecovers) {
  const auto ids = std::vector<std::uint32_t>{1, 2, 3, 4};
  const AdaptiveRunResult run = adaptive_run(/*workers=*/2, ids, /*seed=*/0);

  for (const auto id : ids) {
    const auto it = run.per_assoc.find(id);
    ASSERT_NE(it, run.per_assoc.end()) << "assoc " << id;
    const AssocOutcome& o = it->second;
    // Every message delivered despite the partition and the profile
    // switches it provoked.
    EXPECT_EQ(o.delivered, 61u) << "assoc " << id;
    // The loop actually closed: evaluations happened, the clean warmup
    // promoted off the base rung, and the reconfigurations were applied at
    // rekey boundaries on the live association.
    EXPECT_GT(o.adapt_evaluations, 10u) << "assoc " << id;
    EXPECT_GT(o.adapt_switches, 0u) << "assoc " << id;
    EXPECT_GT(o.reconfigs_applied, 0u) << "assoc " << id;
    // By the clean tail the controller is back above the base rung (the
    // partition demoted it; recovery re-promoted).
    EXPECT_GT(o.adapt_profile, 0u) << "assoc " << id;
    EXPECT_NE(o.mode, Mode::kBase) << "assoc " << id;
    EXPECT_GT(o.batch, 1u) << "assoc " << id;
  }
  EXPECT_EQ(run.total_switches >= 8u, true) << run.total_switches;
  EXPECT_EQ(run.total_reconfigs, [&] {
    std::uint64_t sum = 0;
    for (const auto& [id, o] : run.per_assoc) sum += o.reconfigs_applied;
    return sum;
  }());
}

TEST(AdaptiveDeterminismTest, VerdictsAreBitIdenticalAtAnyWorkerCount) {
  // Same schedule, different shard layouts: 4 associations hash across 1,
  // 2 and 4 shards, yet every controller's trajectory -- down to the loss
  // EWMA bits -- must be identical, because every input it sees is
  // per-association. Frame routing, ring order and shard count must not be
  // observable.
  const auto ids = std::vector<std::uint32_t>{1, 2, 3, 4};
  const AdaptiveRunResult w1 = adaptive_run(1, ids, /*seed=*/0);
  const AdaptiveRunResult w2 = adaptive_run(2, ids, /*seed=*/0);
  const AdaptiveRunResult w4 = adaptive_run(4, ids, /*seed=*/0);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w4);
}

TEST(AdaptiveDeterminismTest, SeededChaosRunReplaysBitIdentically) {
  const std::uint64_t seed = chaos_seed(0xada97);
  SeedReporter reporter{seed};
  // One association so the chaos RNG draw order is itself worker-count
  // invariant (a single frame stream), letting the replay check compose
  // with the worker sweep under genuine Gilbert-Elliott bursts,
  // duplication and reordering.
  const auto ids = std::vector<std::uint32_t>{5};
  const AdaptiveRunResult first = adaptive_run(2, ids, seed);
  const AdaptiveRunResult second = adaptive_run(2, ids, seed);
  EXPECT_EQ(first, second);

  const AdaptiveRunResult w1 = adaptive_run(1, ids, seed);
  const AdaptiveRunResult w4 = adaptive_run(4, ids, seed);
  EXPECT_EQ(first, w1);
  EXPECT_EQ(first, w4);

  // The controller reacted to the chaos at all (the schedule is not
  // vacuous) and the association survived it.
  const AssocOutcome& o = first.per_assoc.at(5);
  EXPECT_GT(o.adapt_evaluations, 10u);
  EXPECT_EQ(o.delivered, 61u);
}

}  // namespace
}  // namespace alpha::core
