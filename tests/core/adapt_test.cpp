// The adaptivity loop: AdaptiveController policy + the rekey-boundary
// reconfiguration protocol it drives.
//
// Controller tests pin the deterministic ladder policy (promotion patience,
// demotion priorities, EWMA loss tracking). Host tests
// pin the protocol guarantees the mode-transition bugfix sweep closed:
// a reconfig staged mid-rekey is delayed but never lost and never rotates
// chains twice; announcements survive duplication/loss/reordering of the
// rekey handshake without desyncing the two ends; cookies stay unique
// across engine swaps; batch-size reconfigs mid-association deliver every
// message under chaos; and a revived rekey re-anchors its retransmission
// timer instead of instantly burning budget on a duplicate.
#include "core/adapt.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/host.hpp"
#include "crypto/random.hpp"
#include "test_bus.hpp"
#include "trace/trace.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using crypto::ByteView;
using crypto::HmacDrbg;
using testing::PacketBus;

Bytes msg(const std::string& s) { return Bytes(s.begin(), s.end()); }

AdaptiveController::Options fast_options() {
  AdaptiveController::Options o;
  o.interval_us = 1000;
  return o;
}

/// One clean window with traffic: low enough retransmit share to promote.
AdaptSignals clean_window() {
  AdaptSignals s;
  s.s1_sent = 10;
  s.s2_sent = 100;
  s.retransmits = 0;
  s.rounds_completed = 10;
  s.max_retries = 5;
  return s;
}

/// One lossy window: a third of all sends were retransmissions.
AdaptSignals lossy_window() {
  AdaptSignals s = clean_window();
  s.retransmits = 55;  // 55 / (10 + 100 + 55) = 1/3
  return s;
}

// ------------------------------------------------------- controller policy

TEST(AdaptiveControllerTest, StartsAtLadderRungNearestBaseConfig) {
  Config base;  // mode kBase, batch 1
  AdaptiveController at_base(1, base, fast_options());
  EXPECT_EQ(at_base.profile().mode, Mode::kBase);
  EXPECT_EQ(at_base.profile().batch, 1u);

  Config c16 = base;
  c16.mode = Mode::kCumulative;
  c16.batch_size = 16;
  AdaptiveController at_c16(1, c16, fast_options());
  EXPECT_EQ(at_c16.profile().mode, Mode::kCumulative);
  EXPECT_EQ(at_c16.profile().batch, 16u);

  // No exact rung: lands on the nearest batch.
  Config c12 = base;
  c12.mode = Mode::kCumulative;
  c12.batch_size = 12;
  AdaptiveController at_c12(1, c12, fast_options());
  EXPECT_EQ(at_c12.profile().batch, 16u);
}

TEST(AdaptiveControllerTest, PromotionNeedsPatienceThenCooldown) {
  AdaptiveController c(1, Config{}, fast_options());
  const std::size_t start = c.profile_index();

  // First clean window: patience not yet met, no switch.
  std::uint64_t now = 0;
  EXPECT_FALSE(c.observe(clean_window(), now).has_value());
  EXPECT_EQ(c.profile_index(), start);

  // Second clean window: promotes one rung.
  now += 1000;
  const auto d = c.observe(clean_window(), now);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, AdaptReason::kPromoteClean);
  EXPECT_EQ(c.profile_index(), start + 1);
  EXPECT_EQ(d->target.batch_size, c.profile().batch);
  EXPECT_EQ(d->target.mode, c.profile().mode);

  // Cooldown (2 windows) + patience (2 windows) block the next promotion
  // until enough further clean windows pass.
  now += 1000;
  EXPECT_FALSE(c.observe(clean_window(), now).has_value());
  now += 1000;
  EXPECT_FALSE(c.observe(clean_window(), now).has_value());
  now += 1000;
  EXPECT_TRUE(c.observe(clean_window(), now).has_value());
  EXPECT_EQ(c.profile_index(), start + 2);
  EXPECT_EQ(c.switches(), 2u);
  EXPECT_EQ(c.evaluations(), 5u);
}

TEST(AdaptiveControllerTest, LossDemotesStepwiseAndSeverelyToBase) {
  Config base;
  base.mode = Mode::kCumulative;
  base.batch_size = 16;  // rung 4
  AdaptiveController c(1, base, fast_options());
  const std::size_t start = c.profile_index();

  // Moderate loss: one rung down (demotions ignore cooldown).
  std::uint64_t now = 0;
  auto d = c.observe(lossy_window(), now);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, AdaptReason::kDemoteLoss);
  EXPECT_EQ(c.profile_index(), start - 1);

  // A catastrophic window pushes the EWMA over severe_loss: straight to
  // the most robust rung, not one step at a time.
  now += 1000;
  AdaptSignals heavy = clean_window();
  heavy.retransmits = 330;  // 330 / 440: three quarters were retransmissions
  d = c.observe(heavy, now);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(c.profile_index(), 0u);
  EXPECT_EQ(c.profile().mode, Mode::kBase);
  EXPECT_EQ(c.profile().batch, 1u);
  // Robust rung: fatter retry budget and earlier rekey cadence.
  Config with_threshold;
  with_threshold.rekey_threshold = 8;
  AdaptiveController robust(2, with_threshold, fast_options());
  const wire::ReconfigAnnounce r = robust.reconfig();
  EXPECT_GT(r.max_retries, with_threshold.max_retries);
  EXPECT_EQ(r.rekey_threshold, 16u);  // 2x headroom on rung 0
}

TEST(AdaptiveControllerTest, PromotionSnapsBackToThePreDemotionRung) {
  Config base;
  base.mode = Mode::kCumulative;
  base.batch_size = 16;  // rung 4
  AdaptiveController c(1, base, fast_options());
  const std::size_t start = c.profile_index();

  // Two heavy windows: stepwise demote, then severe straight to rung 0.
  AdaptSignals heavy = clean_window();
  heavy.retransmits = 330;  // 3/4 of sends were retransmissions
  std::uint64_t now = 0;
  c.observe(heavy, now);
  now += 1000;
  c.observe(heavy, now);
  ASSERT_EQ(c.profile_index(), 0u);

  // Clean windows decay the EWMA; the first promotion does NOT re-climb one
  // rung at a time -- it snaps straight back to the rung the demotion
  // episode fell from, which was proven sustainable before the disturbance.
  std::optional<AdaptDecision> d;
  for (int i = 0; i < 20 && !d.has_value(); ++i) {
    now += 1000;
    d = c.observe(clean_window(), now);
  }
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, AdaptReason::kPromoteClean);
  EXPECT_EQ(c.profile_index(), start);
  EXPECT_EQ(d->target.batch_size, 16u);
}

TEST(AdaptiveControllerTest, BacklogFlushPromotesThroughAStaleEwma) {
  Config base;
  base.mode = Mode::kCumulative;
  base.batch_size = 16;  // rung 4
  AdaptiveController c(1, base, fast_options());
  const std::size_t start = c.profile_index();

  AdaptSignals heavy = clean_window();
  heavy.retransmits = 330;
  std::uint64_t now = 0;
  c.observe(heavy, now);
  now += 1000;
  c.observe(heavy, now);
  ASSERT_EQ(c.profile_index(), 0u);
  ASSERT_GT(c.loss_ewma(), 0.3);

  // The disturbance ends: one window of clean traffic with a deep backlog
  // (a healed partition's queue). The stale EWMA would demand many windows
  // of decay -- exactly the time the backlog would drain at batch 1 -- so
  // the flush override promotes immediately, ignoring patience and
  // cooldown, and restarts the EWMA from the fresh window's measurement.
  AdaptSignals flush = clean_window();
  flush.backlog = 100;
  now += 1000;
  const auto d = c.observe(flush, now);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, AdaptReason::kPromoteFlush);
  EXPECT_EQ(c.profile_index(), start);
  EXPECT_LT(c.loss_ewma(), 0.01);
}

TEST(AdaptiveControllerTest, HealthAndBudgetPressureDemote) {
  Config base;
  base.mode = Mode::kCumulative;
  base.batch_size = 8;
  AdaptiveController c(1, base, fast_options());
  const std::size_t start = c.profile_index();

  AdaptSignals sick = clean_window();
  sick.health = 1;  // degraded
  auto d = c.observe(sick, 0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, AdaptReason::kDemoteHealth);
  EXPECT_EQ(c.profile_index(), start - 1);

  AdaptSignals burning = clean_window();
  burning.round_retries = 4;
  burning.max_retries = 5;  // 80% of the budget gone
  d = c.observe(burning, 1000);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, AdaptReason::kDemoteBudget);
  EXPECT_EQ(c.profile_index(), start - 2);
}

TEST(AdaptiveControllerTest, SustainedPressureEscalatesToMostRobustRung) {
  // During a partition the loss EWMA is blind (an S1-phase round
  // retransmits one frame per backoff, under min_window_sends), so the
  // watchdog/budget signals must escalate on their own: one hot window
  // steps down a rung, two in a row drop straight to rung 0.
  Config base;
  base.mode = Mode::kCumulativeMerkle;
  base.batch_size = 64;
  AdaptiveController health_c(1, base, fast_options());
  const std::size_t top = health_c.profile_index();
  ASSERT_GT(top, 1u);

  AdaptSignals sick = clean_window();
  sick.health = 1;
  sick.round_retries = 3;  // budget corroboration: the round is pinned
  sick.max_retries = 6;
  auto d = health_c.observe(sick, 0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(health_c.profile_index(), top - 1);
  d = health_c.observe(sick, 1000);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, AdaptReason::kDemoteHealth);
  EXPECT_EQ(health_c.profile_index(), 0u);

  // Watchdog noise without budget corroboration (a transient wedge, a
  // rekey-storm blip) demotes one defensive rung, then holds -- it never
  // walks the whole ladder down, and it keeps promotions blocked.
  AdaptiveController noise_c(1, base, fast_options());
  AdaptSignals noisy = clean_window();
  noisy.health = 1;
  d = noise_c.observe(noisy, 0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(noise_c.profile_index(), top - 1);
  EXPECT_FALSE(noise_c.observe(noisy, 1000).has_value());
  EXPECT_FALSE(noise_c.observe(noisy, 2000).has_value());
  EXPECT_EQ(noise_c.profile_index(), top - 1);

  AdaptiveController budget_c(1, base, fast_options());
  AdaptSignals burning = clean_window();
  burning.round_retries = 4;
  burning.max_retries = 5;
  d = budget_c.observe(burning, 0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(budget_c.profile_index(), top - 1);
  d = budget_c.observe(burning, 1000);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, AdaptReason::kDemoteBudget);
  EXPECT_EQ(budget_c.profile_index(), 0u);

  // A single healthy window breaks the streak: pressure afterwards starts
  // over at one rung, not at "straight to base".
  AdaptiveController reset_c(1, base, fast_options());
  ASSERT_TRUE(reset_c.observe(sick, 0).has_value());
  reset_c.observe(clean_window(), 1000);
  d = reset_c.observe(sick, 2000);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(reset_c.profile_index(), top - 2);
}

TEST(AdaptiveControllerTest, PromoteHoldDemandsCleanTimeNotJustWindows) {
  // Window-counted patience saturates within one traffic burst; the hold
  // gate measures clean *time* since the last pressure signal or switch, so
  // sparse bursts cannot promote seconds after an outage.
  AdaptiveController::Options opts = fast_options();
  opts.promote_hold_us = 10'000;
  AdaptiveController c(1, Config{}, opts);
  const std::size_t start = c.profile_index();

  std::uint64_t now = 0;
  for (; now < 10'000; now += 1000) {
    EXPECT_FALSE(c.observe(clean_window(), now).has_value()) << now;
  }
  auto d = c.observe(clean_window(), now);  // now == 10'000: hold satisfied
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, AdaptReason::kPromoteClean);
  EXPECT_EQ(c.profile_index(), start + 1);

  // The switch itself restarts the hold clock: the next rung needs another
  // 10 ms of clean time even though patience is long since satisfied.
  for (now += 1000; now < 20'000; now += 1000) {
    EXPECT_FALSE(c.observe(clean_window(), now).has_value()) << now;
  }
  d = c.observe(clean_window(), now);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(c.profile_index(), start + 2);
}

TEST(AdaptiveControllerTest, IdenticalInputsReplayIdentically) {
  // The controller is pure arithmetic over its inputs: two instances fed
  // the same window sequence must agree on every decision, rung, and EWMA
  // bit. This is the unit-level face of the worker-count determinism the
  // integration suite checks end to end.
  AdaptiveController x(1, Config{}, fast_options());
  AdaptiveController y(1, Config{}, fast_options());
  HmacDrbg rng{42};
  std::uint64_t now = 0;
  for (int i = 0; i < 200; ++i) {
    AdaptSignals s;
    s.s1_sent = rng.uniform(20);
    s.s2_sent = rng.uniform(200);
    s.retransmits = rng.uniform(60);
    s.rounds_completed = rng.uniform(10);
    s.round_retries = rng.uniform(6);
    s.max_retries = 5;
    s.health = static_cast<std::uint8_t>(rng.uniform(3) == 0 ? 1 : 0);
    now += 500 + rng.uniform(1000);
    const auto dx = x.observe(s, now);
    const auto dy = y.observe(s, now);
    ASSERT_EQ(dx.has_value(), dy.has_value()) << "iteration " << i;
    if (dx.has_value()) {
      EXPECT_EQ(dx->target, dy->target) << "iteration " << i;
      EXPECT_EQ(dx->reason, dy->reason) << "iteration " << i;
    }
    ASSERT_EQ(x.profile_index(), y.profile_index()) << "iteration " << i;
    ASSERT_EQ(x.loss_ewma(), y.loss_ewma()) << "iteration " << i;
  }
  EXPECT_EQ(x.evaluations(), y.evaluations());
  EXPECT_EQ(x.switches(), y.switches());
}

TEST(AdaptiveControllerTest, EveryEvaluationEmitsAnAdaptDecisionEvent) {
  trace::Ring ring{64};
  trace::install(&ring);
  AdaptiveController c(9, Config{}, fast_options());
  c.observe(clean_window(), 0);
  c.observe(lossy_window(), 1000);
  trace::install(nullptr);

  std::size_t decisions = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const trace::Event& e = ring.at(i);
    if (e.kind != trace::EventKind::kAdaptDecision) continue;
    ++decisions;
    EXPECT_EQ(e.assoc_id, 9u);
    // The packed detail must decode back to the decision's inputs.
    if (decisions == 2) {
      EXPECT_EQ(trace::adapt_detail_reason(e.detail),
                static_cast<std::uint8_t>(AdaptReason::kDemoteLoss));
      EXPECT_EQ(trace::adapt_detail_to_mode(e.detail),
                static_cast<std::uint8_t>(Mode::kBase));
      EXPECT_EQ(trace::adapt_detail_to_batch(e.detail), 1u);
      EXPECT_GT(trace::adapt_detail_loss_permille(e.detail), 0u);
    }
  }
  // Both evaluations traced: the hold and the demotion.
  EXPECT_EQ(decisions, 2u);
}

// ------------------------------------------- rekey-boundary reconfiguration

struct HostPair {
  explicit HostPair(Config config) : rng_a(11), rng_b(22) {
    Host::Callbacks a_cb;
    a_cb.send = bus.sender(1);
    a_cb.on_delivery = [this](std::uint64_t cookie, DeliveryStatus status) {
      if (status == DeliveryStatus::kAcked) acked.push_back(cookie);
    };
    a.emplace(config, /*assoc_id=*/9, /*initiator=*/true, rng_a,
              std::move(a_cb));

    Host::Callbacks b_cb;
    b_cb.send = bus.sender(0);
    b_cb.on_message = [this](ByteView payload) {
      at_b.push_back(Bytes(payload.begin(), payload.end()));
    };
    b.emplace(config, /*assoc_id=*/9, /*initiator=*/false, rng_b,
              std::move(b_cb));

    bus.attach(0, [this](ByteView frame) { a->on_frame(frame, now); });
    bus.attach(1, [this](ByteView frame) { b->on_frame(frame, now); });
  }

  void establish() {
    a->start(now);
    bus.pump();
    ASSERT_TRUE(a->established());
    ASSERT_TRUE(b->established());
  }

  void send_messages(int count) {
    for (int i = 0; i < count; ++i) {
      a->submit(msg("m" + std::to_string(static_cast<int>(at_b.size()) + i)),
                now);
      bus.pump();
    }
  }

  /// Advances virtual time in `step_us` ticks, pumping after each.
  void run_ticks(int ticks, std::uint64_t step_us) {
    for (int i = 0; i < ticks; ++i) {
      now += step_us;
      a->on_tick(now);
      b->on_tick(now);
      bus.pump();
    }
  }

  HmacDrbg rng_a, rng_b;
  PacketBus bus;
  std::optional<Host> a, b;
  std::uint64_t now = 0;
  std::vector<Bytes> at_b;
  std::vector<std::uint64_t> acked;
};

wire::ReconfigAnnounce announce(Mode mode, std::uint16_t batch,
                                const Config& base) {
  wire::ReconfigAnnounce r;
  r.mode = mode;
  r.batch_size = batch;
  r.merkle_group = static_cast<std::uint16_t>(base.merkle_group);
  r.max_retries = static_cast<std::uint8_t>(base.max_retries);
  r.rekey_threshold = static_cast<std::uint32_t>(base.rekey_threshold);
  return r;
}

TEST(HostReconfigTest, ReconfigAppliesOnBothEndsAtTheRekeyBoundary) {
  Config config;
  config.reliable = true;
  HostPair pair{config};
  pair.establish();
  pair.send_messages(2);
  ASSERT_EQ(pair.at_b.size(), 2u);

  // Stage C/16: starts a rekey immediately (none in flight).
  EXPECT_TRUE(pair.a->request_reconfig(
      announce(Mode::kCumulative, 16, config), pair.now));
  EXPECT_TRUE(pair.a->rekey_pending());
  pair.bus.pump();

  ASSERT_FALSE(pair.a->rekey_pending());
  EXPECT_FALSE(pair.a->staged_reconfig().has_value());
  EXPECT_EQ(pair.a->reconfigs_applied(), 1u);
  EXPECT_EQ(pair.b->reconfigs_applied(), 1u);
  EXPECT_EQ(pair.a->config().mode, Mode::kCumulative);
  EXPECT_EQ(pair.a->config().effective_batch(), 16u);
  EXPECT_EQ(pair.b->config().mode, Mode::kCumulative);
  EXPECT_EQ(pair.b->config().effective_batch(), 16u);

  // The association still authenticates on the new profile -- a full batch
  // in one round.
  for (int i = 0; i < 16; ++i) {
    pair.a->submit(msg("batch" + std::to_string(i)), pair.now);
  }
  pair.bus.pump();
  pair.run_ticks(4, config.rto_us);
  EXPECT_EQ(pair.at_b.size(), 18u);
  EXPECT_EQ(pair.a->signer_stats_total().rounds_completed,
            pair.a->signer_stats_total().rounds_started);
}

TEST(HostReconfigTest, RequestDuringInFlightRekeyIsDelayedNotLost) {
  // The force_rekey race: a controller-triggered reconfig while a rekey
  // handshake is already in flight (and its budget nearly exhausted) must
  // neither rotate chains twice nor drop the request.
  Config config;
  config.reliable = true;
  config.max_retries = 3;
  HostPair pair{config};
  pair.establish();
  pair.send_messages(1);

  // Cut the link mid-rekey and burn most of the budget.
  pair.bus.set_hook([](Bytes&) { return false; });
  ASSERT_TRUE(pair.a->force_rekey(pair.now));
  pair.run_ticks(2, 2'000'000);
  ASSERT_TRUE(pair.a->rekey_pending());

  // The reconfig request cannot start a second rekey now: it stages.
  EXPECT_FALSE(pair.a->request_reconfig(
      announce(Mode::kCumulative, 4, config), pair.now));
  ASSERT_TRUE(pair.a->staged_reconfig().has_value());
  EXPECT_TRUE(pair.a->rekey_pending());

  // Heal the link; the in-flight rekey (no announcement) completes first,
  // then the staged request triggers its own rekey and lands.
  pair.bus.set_hook(nullptr);
  pair.run_ticks(6, 2'000'000);
  EXPECT_FALSE(pair.a->rekey_pending());
  EXPECT_FALSE(pair.a->staged_reconfig().has_value());
  EXPECT_EQ(pair.a->reconfigs_applied(), 1u);
  EXPECT_EQ(pair.b->reconfigs_applied(), 1u);
  EXPECT_EQ(pair.a->config().effective_batch(), 4u);
  EXPECT_EQ(pair.b->config().effective_batch(), 4u);

  // Still delivering after the double boundary.
  pair.send_messages(4);
  pair.run_ticks(3, config.rto_us);
  EXPECT_EQ(pair.at_b.size(), 5u);
}

TEST(HostReconfigTest, RekeyOverOutageNeverFailsTheAssociation) {
  // The association-suicide bug: an optimistic rekey fired just before a
  // partition used to exhaust its handshake budget and mark the whole
  // association failed -- losing every queued message -- even though the
  // peer was proven alive moments earlier. An established association now
  // rides out the outage on a slow HS1 heartbeat and completes the rekey
  // on the first healed round trip; only the *establishment* handshake
  // (whose peer may simply not exist) still gives up.
  Config config;
  config.reliable = true;
  config.max_retries = 2;  // lean budget: exhausted within ~1 s of outage
  HostPair pair{config};
  pair.establish();
  pair.send_messages(1);
  ASSERT_EQ(pair.at_b.size(), 1u);

  // Cut the link, then fire a reconfig rekey into the void and wait far
  // past the budget's coverage.
  pair.bus.set_hook([](Bytes&) { return false; });
  EXPECT_TRUE(pair.a->request_reconfig(
      announce(Mode::kCumulative, 4, config), pair.now));
  ASSERT_TRUE(pair.a->rekey_pending());
  pair.run_ticks(20, 2'000'000);
  EXPECT_FALSE(pair.a->failed());
  EXPECT_TRUE(pair.a->rekey_pending());

  // Messages queue behind the paused signer instead of being lost.
  pair.a->submit(msg("queued"), pair.now);
  pair.bus.pump();
  EXPECT_EQ(pair.at_b.size(), 1u);

  // Heal: the heartbeat completes the rekey, the reconfig lands on both
  // ends, and the queued message delivers.
  pair.bus.set_hook(nullptr);
  pair.run_ticks(4, 2'000'000);
  EXPECT_FALSE(pair.a->failed());
  EXPECT_FALSE(pair.a->rekey_pending());
  EXPECT_EQ(pair.a->config().effective_batch(), 4u);
  EXPECT_EQ(pair.b->config().effective_batch(), 4u);
  EXPECT_EQ(pair.at_b.size(), 2u);

  // The establishment handshake keeps its give-up semantics: a brand-new
  // initiator with no peer must fail, not heartbeat forever.
  HmacDrbg lonely_rng{33};
  Host::Callbacks lonely_cb;
  lonely_cb.send = [](Bytes) {};
  Host lonely{config, /*assoc_id=*/10, /*initiator=*/true, lonely_rng,
              std::move(lonely_cb)};
  lonely.start(0);
  std::uint64_t t = 0;
  for (int i = 0; i < 20; ++i) {
    t += 2'000'000;
    lonely.on_tick(t);
  }
  EXPECT_TRUE(lonely.failed());
}

TEST(HostReconfigTest, AnnouncementSurvivesDupLossReorderWithoutDesync) {
  // Mode-switch equivalence: duplicate every frame, drop the first HS2 echo,
  // and deliver a stale duplicate late. The two ends must still converge to
  // the same profile, apply it exactly once each, and never desync the
  // signer/verifier pair (every message still authenticates).
  Config config;
  config.reliable = true;
  HostPair pair{config};
  pair.establish();
  pair.send_messages(2);

  std::vector<Bytes> captured;
  int hs2_seen = 0;
  pair.bus.set_hook([&](Bytes& frame) {
    captured.push_back(frame);  // replay everything later, out of order
    if (wire::peek_type(frame) == wire::PacketType::kHs2) {
      ++hs2_seen;
      if (hs2_seen == 1) return false;  // drop the first echo
    }
    return true;
  });

  EXPECT_TRUE(pair.a->request_reconfig(
      announce(Mode::kMerkle, 32, config), pair.now));
  pair.bus.pump();
  // Echo lost: the initiator keeps the announcement in flight and
  // retransmits the same HS1 until the echo arrives.
  ASSERT_TRUE(pair.a->rekey_pending());
  pair.run_ticks(4, config.rto_us);
  ASSERT_FALSE(pair.a->rekey_pending());
  pair.bus.set_hook(nullptr);

  EXPECT_EQ(pair.a->reconfigs_applied(), 1u);
  EXPECT_EQ(pair.b->reconfigs_applied(), 1u);
  EXPECT_EQ(pair.a->config().mode, Mode::kMerkle);
  EXPECT_EQ(pair.b->config().mode, Mode::kMerkle);

  // Now replay every captured frame (duplicated, reversed order): stale
  // handshakes and stale rounds must all be rejected or answered
  // idempotently -- no state reset, no second application.
  for (auto it = captured.rbegin(); it != captured.rend(); ++it) {
    pair.a->on_frame(*it, pair.now);
    pair.b->on_frame(*it, pair.now);
  }
  pair.bus.pump();
  EXPECT_EQ(pair.a->reconfigs_applied(), 1u);
  EXPECT_EQ(pair.b->reconfigs_applied(), 1u);
  EXPECT_EQ(pair.a->config().mode, Mode::kMerkle);
  EXPECT_EQ(pair.b->config().mode, Mode::kMerkle);

  // Fill one tree-mode batch; everything authenticates and delivers. The
  // replayed stale frames above were rejected, but a clean burst on the
  // post-switch profile must not produce a single invalid packet.
  const std::uint64_t invalid_before =
      pair.b->verifier_stats_total().invalid_packets;
  for (int i = 0; i < 32; ++i) {
    pair.a->submit(msg("t" + std::to_string(i)), pair.now);
  }
  pair.bus.pump();
  pair.run_ticks(4, config.rto_us);
  EXPECT_EQ(pair.at_b.size(), 34u);
  EXPECT_EQ(pair.b->verifier_stats_total().invalid_packets, invalid_before);
}

TEST(HostReconfigTest, BatchResizesMidAssociationUnderChaos) {
  // The cached-batch bugfix sweep: walk batch 1 -> 16 -> 4 on a live
  // association while every third frame is dropped. Per-round wire batching
  // is self-describing, so no consumer of Config::effective_batch may hold
  // a stale N across the switches -- every message must still arrive
  // exactly once.
  Config config;
  config.reliable = true;
  config.retransmit_on_nack = true;
  HostPair pair{config};
  pair.establish();

  int frame_count = 0;
  pair.bus.set_hook([&](Bytes&) { return ++frame_count % 3 != 0; });

  const auto deliver_burst = [&](int count) {
    for (int i = 0; i < count; ++i) {
      pair.a->submit(
          msg("c" + std::to_string(static_cast<int>(pair.at_b.size()) + i)),
          pair.now);
    }
    pair.bus.pump();
    pair.run_ticks(30, config.rto_us);
  };
  const auto switch_batch = [&](Mode mode, std::uint16_t batch) {
    // May defer past an unsettled round (chaos keeps rounds in flight), so
    // the return value is not asserted; the ticks below give the staged
    // request its boundary.
    pair.a->request_reconfig(announce(mode, batch, config), pair.now);
    pair.run_ticks(30, config.rto_us);
    ASSERT_FALSE(pair.a->rekey_pending());
    ASSERT_EQ(pair.a->config().effective_batch(), batch);
    ASSERT_EQ(pair.b->config().effective_batch(), batch);
  };

  deliver_burst(3);  // batch 1
  switch_batch(Mode::kCumulative, 16);
  deliver_burst(20);  // one full round + a partial
  switch_batch(Mode::kCumulative, 4);
  deliver_burst(9);

  // Exactly once, in spite of the chaos and the two live resizes.
  ASSERT_EQ(pair.at_b.size(), 32u);
  std::set<Bytes> distinct(pair.at_b.begin(), pair.at_b.end());
  EXPECT_EQ(distinct.size(), 32u);
}

TEST(HostReconfigTest, CookiesStayUniqueAcrossRekeys) {
  // Engine swaps used to restart the cookie counter at 1 while resubmitted
  // backlog kept its old cookies: later submissions then collided with
  // settled ones, making delivery reports ambiguous (and supervisor-side
  // cookie mirrors drift). The counter now carries across reestablish().
  Config config;
  config.reliable = true;
  HostPair pair{config};
  pair.establish();

  std::vector<std::uint64_t> cookies;
  for (int i = 0; i < 3; ++i) cookies.push_back(pair.a->submit(msg("x"), pair.now));
  pair.bus.pump();

  ASSERT_TRUE(pair.a->force_rekey(pair.now));
  // Mid-rekey submissions land in the paused signer's backlog and keep
  // their cookies across the swap.
  cookies.push_back(pair.a->submit(msg("y"), pair.now));
  pair.bus.pump();
  ASSERT_FALSE(pair.a->rekey_pending());
  for (int i = 0; i < 3; ++i) cookies.push_back(pair.a->submit(msg("z"), pair.now));
  pair.bus.pump();
  pair.run_ticks(3, config.rto_us);

  // Strictly increasing, no reuse -- 1..7, not 1,2,3,1,2,...
  std::string all;
  for (const auto ck : cookies) all += std::to_string(ck) + " ";
  for (std::size_t i = 1; i < cookies.size(); ++i) {
    EXPECT_GT(cookies[i], cookies[i - 1]) << "cookie " << i << " reused";
  }
  EXPECT_EQ(cookies.back(), cookies.size()) << "cookies: " << all;
  // Every submission was acked exactly once under its own cookie.
  std::set<std::uint64_t> acked(pair.acked.begin(), pair.acked.end());
  EXPECT_EQ(acked.size(), cookies.size());
  EXPECT_EQ(pair.acked.size(), cookies.size());
}

TEST(HostReconfigTest, RevivedHandshakeReanchorsItsRetransmissionTimer) {
  // start(now) after a budget-exhausted handshake must anchor the timer at
  // the revival send: with the stale anchor, the very next on_tick fired an
  // immediate duplicate of the frame just sent, silently spending one retry
  // of the fresh budget. Rekey handshakes no longer exhaust at all (see
  // RekeyOverOutageNeverFailsTheAssociation), so the establishment
  // handshake is where revival happens now.
  Config config;
  config.max_retries = 3;
  HostPair pair{config};

  pair.bus.set_hook([](Bytes&) { return false; });
  pair.a->start(pair.now);
  pair.run_ticks(8, 2'000'000);
  ASSERT_TRUE(pair.a->failed());
  pair.bus.set_hook(nullptr);

  const std::uint64_t retx_before = pair.a->hs_retransmits();
  pair.a->start(pair.now);
  // A tick shortly after the revival send is inside the backoff window: it
  // must NOT retransmit.
  pair.now += 1000;
  pair.a->on_tick(pair.now);
  EXPECT_EQ(pair.a->hs_retransmits(), retx_before);
  pair.bus.pump();
  EXPECT_TRUE(pair.a->established());
  EXPECT_TRUE(pair.b->established());
}

}  // namespace
}  // namespace alpha::core
