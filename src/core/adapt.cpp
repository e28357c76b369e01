#include "core/adapt.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace alpha::core {

namespace {

// The profile ladder, most robust first. Rung 0 is base mode with the
// fattest retry budget: one message per round rides out a long outage
// because only that single message's budget is on the clock, and with the
// exponential backoff capped at rto_max every extra retry buys whole
// seconds of outage coverage. The middle rungs amortize chain elements and
// A1 turnarounds over growing ALPHA-C batches; the top rungs switch to tree
// modes, whose S1 stays one digest (plus counters) no matter the batch,
// keeping huge batches inside one MTU. Extra retries concentrate at the
// bottom: robustness is *why* the controller demotes there, while a fat
// budget on a 64-message round just keeps 64 messages hostage to a channel
// that already proved it eats them.
constexpr AdaptProfile kLadder[] = {
    {Mode::kBase, 1, 8, 10},
    {Mode::kCumulative, 2, 8, 4},
    {Mode::kCumulative, 4, 8, 0},
    {Mode::kCumulative, 8, 8, 0},
    {Mode::kCumulative, 16, 8, 0},
    {Mode::kMerkle, 32, 8, 0},
    {Mode::kCumulativeMerkle, 64, 8, 0},
};
constexpr std::size_t kLadderSize = sizeof(kLadder) / sizeof(kLadder[0]);

/// Starting rung: the ladder entry nearest the deployment's configured
/// profile, so enabling the controller never causes a gratuitous switch.
std::size_t initial_rung(const Config& base) noexcept {
  const std::size_t batch = base.effective_batch();
  std::size_t best = 0;
  std::size_t best_dist = ~std::size_t{0};
  for (std::size_t i = 0; i < kLadderSize; ++i) {
    const std::size_t b = kLadder[i].batch;
    const std::size_t dist = b > batch ? b - batch : batch - b;
    // Prefer the matching mode on ties, lower rung otherwise.
    const bool better =
        dist < best_dist ||
        (dist == best_dist && kLadder[i].mode == base.mode);
    if (better) {
      best = i;
      best_dist = dist;
    }
  }
  return best;
}

}  // namespace

const char* to_string(AdaptReason reason) noexcept {
  switch (reason) {
    case AdaptReason::kHold: return "hold";
    case AdaptReason::kPromoteClean: return "promote_clean";
    case AdaptReason::kDemoteLoss: return "demote_loss";
    case AdaptReason::kDemoteHealth: return "demote_health";
    case AdaptReason::kDemoteBudget: return "demote_budget";
    case AdaptReason::kPromoteFlush: return "promote_flush";
  }
  return "unknown";
}

const AdaptProfile* AdaptiveController::ladder(std::size_t* count) noexcept {
  if (count != nullptr) *count = kLadderSize;
  return kLadder;
}

AdaptiveController::AdaptiveController(std::uint32_t assoc_id,
                                       const Config& base, Options options)
    : assoc_id_(assoc_id),
      base_(base),
      options_(options),
      index_(initial_rung(base)),
      top_(std::min(options.max_profile, kLadderSize - 1)) {
  if (index_ > top_) index_ = top_;
  snap_back_ = index_;
}

const AdaptProfile& AdaptiveController::profile() const noexcept {
  return kLadder[index_];
}

wire::ReconfigAnnounce AdaptiveController::reconfig() const noexcept {
  return reconfig_for(index_);
}

wire::ReconfigAnnounce AdaptiveController::reconfig_for(
    std::size_t index) const noexcept {
  const AdaptProfile& p = kLadder[index];
  wire::ReconfigAnnounce r;
  r.mode = p.mode;
  r.batch_size = p.batch;
  r.merkle_group = p.merkle_group;
  const int retries = base_.max_retries + p.extra_retries;
  r.max_retries = static_cast<std::uint8_t>(std::clamp(retries, 1, 255));
  // Rekey cadence rides the same announcement: robust rungs rekey earlier
  // (more chain headroom for retransmission storms), lean rungs keep the
  // deployment's cadence. Rung 0..1 count as "lossy" territory.
  std::size_t threshold = base_.rekey_threshold;
  if (index <= 1 && threshold != 0 && options_.lossy_rekey_headroom > 1) {
    threshold *= options_.lossy_rekey_headroom;
    // Never demand more headroom than half a chain: a threshold at or above
    // chain_length would rekey every round.
    threshold = std::min(threshold, base_.chain_length / 2);
  }
  r.rekey_threshold = static_cast<std::uint32_t>(
      std::min<std::size_t>(threshold, 0xFFFFFFFFu));
  return r;
}

void AdaptiveController::emit_decision(AdaptReason reason, std::size_t from,
                                       std::size_t to,
                                       std::uint8_t health) const noexcept {
  const AdaptProfile& f = kLadder[from];
  const AdaptProfile& t = kLadder[to];
  const double budget =
      acc_.max_retries > 0
          ? static_cast<double>(acc_.round_retries) / acc_.max_retries
          : 0.0;
  trace::emit(trace::EventKind::kAdaptDecision, assoc_id_,
              static_cast<std::uint32_t>(evaluations_),
              /*packet_type=*/0, trace::DropReason::kNone,
              trace::pack_adapt_detail(
                  static_cast<std::uint8_t>(t.mode), t.batch,
                  static_cast<std::uint8_t>(f.mode), f.batch,
                  static_cast<std::uint8_t>(reason),
                  static_cast<std::uint32_t>(loss_ewma_ * 1000.0),
                  static_cast<std::uint32_t>(budget * 100.0), health));
}

std::optional<AdaptDecision> AdaptiveController::observe(
    const AdaptSignals& signals, std::uint64_t now_us) {
  // Accumulate deltas; live fields overwrite (latest wins).
  acc_.s1_sent += signals.s1_sent;
  acc_.s2_sent += signals.s2_sent;
  acc_.retransmits += signals.retransmits;
  acc_.rounds_completed += signals.rounds_completed;
  acc_.rounds_failed += signals.rounds_failed;
  acc_.delivered += signals.delivered;
  acc_.backlog = signals.backlog;
  acc_.round_retries = signals.round_retries;
  acc_.max_retries = signals.max_retries;
  acc_.health = signals.health;

  if (evaluated_once_ && now_us - last_eval_us_ < options_.interval_us) {
    return std::nullopt;
  }
  evaluated_once_ = true;
  last_eval_us_ = now_us;
  ++evaluations_;

  // Loss proxy: share of wire sends this window that were retransmissions.
  // s1_sent/s2_sent count initial sends only, so the ratio is bounded by 1.
  const std::uint64_t sends = acc_.s1_sent + acc_.s2_sent + acc_.retransmits;
  const bool had_traffic =
      sends >= std::max<std::uint64_t>(1, options_.min_window_sends);
  const double inst =
      had_traffic
          ? static_cast<double>(acc_.retransmits) / static_cast<double>(sends)
          : 0.0;
  if (had_traffic) {
    loss_ewma_ =
        options_.loss_alpha * inst + (1.0 - options_.loss_alpha) * loss_ewma_;
  }
  const double budget_pressure =
      acc_.max_retries > 0
          ? static_cast<double>(acc_.round_retries) /
                static_cast<double>(acc_.max_retries)
          : 0.0;
  const std::uint8_t health = acc_.health;

  // Escalation streaks. During a partition the loss EWMA is blind (an
  // S1-phase round retransmits one frame per backoff, so every window falls
  // under min_window_sends and freezes the EWMA); the watchdog and the
  // retry-budget gauge are the signals that still see it. One hot window is
  // a blip and steps down one rung; two in a row mean the in-flight round
  // is pinned against its budget -- a dead link -- and the right rung is
  // the most robust one, immediately.
  health_streak_ = health != 0 ? health_streak_ + 1 : 0;
  budget_streak_ =
      budget_pressure >= options_.budget_demote ? budget_streak_ + 1 : 0;

  // Backlog-flush override: a disturbance that just *ended* leaves the EWMA
  // poisoned and a backlog queued, and the EWMA's decay time is exactly the
  // time the flush would spend draining that backlog at a lean rung. The
  // instantaneous window is fresh evidence the channel delivers again, so
  // promote now -- straight back to the pre-disturbance rung -- and let the
  // EWMA restart from today's measurement instead of the outage's.
  const bool flush_override =
      options_.flush_backlog_factor > 0 && had_traffic &&
      inst <= options_.promote_loss && index_ < top_ &&
      acc_.backlog >=
          options_.flush_backlog_factor * std::size_t{profile().batch} &&
      budget_pressure < options_.budget_demote;

  // Boundary flush, the mid-outage variant: when the in-flight round is
  // pinned against its budget the rekey boundary cannot open until the
  // channel heals, so whatever profile is staged at that boundary is by
  // construction the *post-heal* profile. Once the queue behind the pinned
  // round is deeper than the snap-back rung's whole batch, that post-heal
  // work is a drain job and the staged profile should be the drain rung.
  // Waiting for a post-heal clean window to say so (the flush override
  // above) is provably too late at LAN round-trips: rung 0 rips through
  // the entire backlog inside one evaluation interval, spending ~4 frames
  // per message before the flush can land.
  // "Pinned" uses the same corroboration as the dead-link escalation
  // below: either the budget gauge alone is deep in the red, or the
  // watchdog has been degraded for consecutive windows while the budget
  // burns -- a shorter outage (rung 0 carries a fat budget, so the gauge
  // climbs slowly) would otherwise heal before the gauge ever gets there.
  const std::size_t drain_rung = std::min(snap_back_, top_);
  const bool outage_pinned =
      budget_pressure >= options_.budget_demote ||
      (health != 0 && health_streak_ >= 2 &&
       budget_pressure >= options_.budget_demote * 0.5);
  const bool boundary_flush =
      options_.flush_backlog_factor > 0 && outage_pinned &&
      acc_.backlog >= std::size_t{kLadder[drain_rung].batch};

  AdaptReason reason = AdaptReason::kHold;
  std::size_t target = index_;
  if (flush_override) {
    target = std::min(std::max(index_ + 1, snap_back_), top_);
    reason = AdaptReason::kPromoteFlush;
    loss_ewma_ = inst;
  } else if (boundary_flush) {
    // Hold the drain rung while the outage lasts (kHold on repeat evals
    // keeps the belief stable instead of flapping against the demote
    // branches below); rounds cannot launch meanwhile -- the signer is
    // paused at the held boundary -- so the lean profile endangers nothing.
    target = std::max(index_, drain_rung);
    reason =
        target != index_ ? AdaptReason::kPromoteFlush : AdaptReason::kHold;
  } else if (loss_ewma_ >= options_.severe_loss) {
    target = 0;
    reason = AdaptReason::kDemoteLoss;
  } else if (loss_ewma_ >= options_.demote_loss) {
    if (index_ > 0) target = index_ - 1;
    reason = AdaptReason::kDemoteLoss;
  } else if (health != 0) {
    // The watchdog alone is one defensive step: "degraded" also covers
    // rekey storms and transient wedges on an otherwise fine channel
    // (including rekeys this controller itself requested). Escalating to
    // the most robust rung takes corroboration -- a sustained streak AND
    // the in-flight round visibly burning its budget, which is what a
    // partition looks like. Persistent degradation without that
    // corroboration holds position: it blocks promotions (the reason
    // resets the clean/hold clocks below) but never walks the whole
    // ladder down on watchdog noise.
    if (health_streak_ >= 2 &&
        budget_pressure >= options_.budget_demote * 0.5) {
      target = 0;
    } else if (health_streak_ <= 1 && index_ > 0) {
      target = index_ - 1;
    }
    reason = AdaptReason::kDemoteHealth;
  } else if (budget_pressure >= options_.budget_demote) {
    if (budget_streak_ >= 2) {
      target = 0;
    } else if (index_ > 0) {
      target = index_ - 1;
    }
    reason = AdaptReason::kDemoteBudget;
  } else if (had_traffic && loss_ewma_ <= options_.promote_loss) {
    ++clean_windows_;
    if (clean_windows_ >= options_.promote_patience && cooldown_left_ == 0 &&
        index_ < top_ &&
        (options_.promote_hold_us == 0 ||
         now_us - last_pressure_us_ >= options_.promote_hold_us)) {
      // Snap back to the rung the last demotion episode fell from (it was
      // proven sustainable before the disturbance); climb stepwise past it.
      target = std::min(std::max(index_ + 1, snap_back_), top_);
      reason = AdaptReason::kPromoteClean;
    }
  }
  if (reason != AdaptReason::kHold && reason != AdaptReason::kPromoteClean &&
      reason != AdaptReason::kPromoteFlush) {
    clean_windows_ = 0;       // any pressure restarts the promotion clock
    last_pressure_us_ = now_us;  // ...and the promote-hold clock
  }

  emit_decision(reason, index_, target, health);
  // A window too small to read stays open, for up to min_window_sends
  // evaluations, so sparse traffic still yields evidence. One holding only
  // retransmissions is an outage's spray, dropped (the partition freeze).
  const bool carry = !had_traffic && acc_.s1_sent + acc_.s2_sent > 0 &&
                     ++window_intervals_ < options_.min_window_sends;
  if (!carry) {
    acc_ = AdaptSignals{};  // next window accumulates fresh deltas
    window_intervals_ = 0;
  }
  if (cooldown_left_ > 0) --cooldown_left_;

  if (target == index_) return std::nullopt;

  if (target < index_) {
    // Remember the rung this demotion episode fell from for snap-back.
    snap_back_ = std::max(snap_back_, index_);
  }
  index_ = target;
  if (index_ > snap_back_) snap_back_ = index_;
  ++switches_;
  clean_windows_ = 0;
  cooldown_left_ = options_.cooldown;
  // Every switch restarts the promote-hold clock: each rung must prove
  // itself over sustained clean time before the next step up.
  last_pressure_us_ = now_us;

  AdaptDecision d;
  d.target = reconfig_for(target);
  d.reason = reason;
  d.profile_index = static_cast<std::uint8_t>(target);
  d.loss_rate = loss_ewma_;
  d.budget_pressure = budget_pressure;
  d.health = health;
  return d;
}

}  // namespace alpha::core
