// Closed-loop adaptivity: the live-telemetry mode/batch controller.
//
// ALPHA's §3 trade-off -- base mode for robustness, ALPHA-C for amortized
// overhead, ALPHA-M/C+M for bounded control-packet size -- is a choice the
// seed tree froze at association setup. AdaptiveController closes the loop:
// it consumes the signals the telemetry layer already produces (loss
// pressure from the retransmit taxonomy, HealthMonitor state,
// retransmit-budget pressure) and
// walks a deterministic ladder of (mode, batch) profiles, demoting toward
// base under loss and promoting toward large batches on sustained clean
// windows.
//
// Decisions are *proposals*: a switch only takes effect at a rekey boundary
// (Host::request_reconfig stages a wire::ReconfigAnnounce that rides the
// rekey HS1 and is echoed in the HS2), because chain rotation is the one
// point where both ends discard per-round state anyway. Until that boundary
// the association keeps running the old profile; the per-round wire format
// is self-describing (mode and batch travel in every S1), so even a
// temporarily asymmetric profile never desyncs signer from verifier.
//
// Everything here is deterministic: the policy is pure arithmetic over the
// observed window (no RNG, no wall clock), so a seeded simulator run
// replays the exact decision sequence at any worker count. Every
// evaluation -- switch or hold -- emits one kAdaptDecision trace event
// whose detail packs the input snapshot (see trace::pack_adapt_detail),
// making the policy explainable post-hoc via `alpha_inspect --adapt`.
#pragma once

#include <cstdint>
#include <optional>

#include "core/config.hpp"
#include "wire/packets.hpp"

namespace alpha::core {

/// Why the controller moved (or held). Stored in the kAdaptDecision detail.
enum class AdaptReason : std::uint8_t {
  kHold = 0,           // evaluated, no change
  kPromoteClean = 1,   // sustained clean channel: grow the batch
  kDemoteLoss = 2,     // retransmit/loss pressure: shrink toward base
  kDemoteHealth = 3,   // health watchdog left kOk
  kDemoteBudget = 4,   // in-flight round burning most of its retry budget
  // 5 was a latency demotion; recorded traces keep their reason values.
  kPromoteFlush = 6,   // healed channel + queued backlog: snap back now
};

const char* to_string(AdaptReason reason) noexcept;

/// One observation window of per-association signals. Counter fields are
/// deltas since the previous observe() call (the caller keeps the previous
/// totals); state fields are live values at observation time.
struct AdaptSignals {
  // Send/retransmit deltas from SignerStats (+ handshake retransmits).
  std::uint64_t s1_sent = 0;
  std::uint64_t s2_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rounds_completed = 0;
  std::uint64_t rounds_failed = 0;
  std::uint64_t delivered = 0;  // messages the peer acknowledged
  // Live state.
  std::size_t backlog = 0;            // submitted, not yet in a round
  std::uint32_t round_retries = 0;    // in-flight round attempts so far
  int max_retries = 0;                // current budget (pressure denominator)
  std::uint8_t health = 0;            // trace::HealthState value
};

/// One rung of the profile ladder.
struct AdaptProfile {
  Mode mode = Mode::kBase;
  std::uint16_t batch = 1;
  std::uint16_t merkle_group = 8;  // meaningful for kCumulativeMerkle only
  std::uint8_t extra_retries = 0;  // added to the base budget (robust rungs)
};

/// The verdict of one evaluation that requested a switch.
struct AdaptDecision {
  wire::ReconfigAnnounce target;  // profile to stage at the rekey boundary
  AdaptReason reason = AdaptReason::kHold;
  std::uint8_t profile_index = 0;  // ladder rung of `target`
  double loss_rate = 0.0;          // EWMA at decision time
  double budget_pressure = 0.0;    // round_retries / max_retries
  std::uint8_t health = 0;
};

class AdaptiveController {
 public:
  struct Options {
    /// Minimum spacing between policy evaluations; observe() calls inside
    /// the window only accumulate deltas. Virtual time under the simulator.
    std::uint64_t interval_us = 500'000;
    /// EWMA smoothing for the per-window loss rate (0 < alpha <= 1).
    double loss_alpha = 0.4;
    /// Loss EWMA below which a window counts as clean.
    double promote_loss = 0.02;
    /// Loss EWMA above which the controller steps one rung down.
    double demote_loss = 0.12;
    /// Loss EWMA above which it drops straight to the most robust rung.
    double severe_loss = 0.35;
    /// Consecutive clean windows required before stepping up.
    int promote_patience = 2;
    /// Windows to block further *promotions* after any switch (demotions
    /// stay allowed: safety reacts immediately, growth is patient).
    int cooldown = 2;
    /// round_retries / max_retries above which the budget demotes.
    double budget_demote = 0.75;
    /// Highest ladder rung the controller may promote to (clamped to the
    /// ladder size). Lets small-MTU deployments fence off huge batches.
    std::size_t max_profile = 64;
    /// Rekey headroom multiplier applied to the base rekey_threshold while
    /// on a demoted (lossy) rung: rekeying earlier buys chain slack for
    /// retransmission storms. 1 disables.
    std::size_t lossy_rekey_headroom = 2;
    /// Backlog-flush override: when the *instantaneous* window is clean but
    /// the EWMA is still poisoned by a disturbance that just ended (a healed
    /// partition leaves a large queued backlog and a high EWMA), a backlog
    /// deeper than this many multiples of the current batch promotes
    /// immediately -- straight back to the pre-disturbance rung -- instead
    /// of draining the whole queue one lean round at a time while the EWMA
    /// decays. 0 disables the override.
    std::size_t flush_backlog_factor = 8;
    /// Minimum wire sends in a window for it to count as loss evidence.
    /// A mid-round window that happens to contain only a retransmission
    /// spray (no initial sends) reads as ~100% instantaneous loss no matter
    /// how healthy the channel is; tiny windows are noise, not signal, so
    /// they neither update the EWMA nor count toward promotion patience.
    /// A tiny window with initial sends stays open instead, for up to this
    /// many evaluations, so sparse traffic still accumulates evidence.
    std::uint64_t min_window_sends = 8;
    /// Minimum virtual time since the last pressure signal (any demote-worthy
    /// window, or any committed switch) before a clean-window promotion is
    /// allowed. Patience counts *windows*, but windows only exist while
    /// traffic flows -- under sparse bursts a couple hundred milliseconds of
    /// clean frames can satisfy patience seconds after an outage, promoting
    /// straight into the next one. This gate demands sustained clean *time*.
    /// 0 disables (promotion gated by patience/cooldown alone).
    std::uint64_t promote_hold_us = 0;
  };

  /// `base` supplies the invariants a reconfig never touches (hash algo,
  /// reliability, chain length, MTU hint) plus the starting mode/batch --
  /// the controller begins at the ladder rung closest to base's profile.
  AdaptiveController(std::uint32_t assoc_id, const Config& base,
                     Options options);

  /// Feeds one observation window. Returns a decision exactly when the
  /// policy wants a profile switch; holds return nullopt (but still emit a
  /// kAdaptDecision trace event, so the log shows every evaluation).
  std::optional<AdaptDecision> observe(const AdaptSignals& signals,
                                       std::uint64_t now_us);

  /// The profile the controller currently believes the association runs
  /// (optimistic: updated at decision time, applied at the rekey boundary).
  const AdaptProfile& profile() const noexcept;
  std::size_t profile_index() const noexcept { return index_; }
  /// Reconfig announcement for the current profile.
  wire::ReconfigAnnounce reconfig() const noexcept;

  std::uint64_t evaluations() const noexcept { return evaluations_; }
  std::uint64_t switches() const noexcept { return switches_; }
  double loss_ewma() const noexcept { return loss_ewma_; }

  /// The deterministic profile ladder, most robust first.
  static const AdaptProfile* ladder(std::size_t* count) noexcept;

 private:
  wire::ReconfigAnnounce reconfig_for(std::size_t index) const noexcept;
  void emit_decision(AdaptReason reason, std::size_t from, std::size_t to,
                     std::uint8_t health) const noexcept;

  std::uint32_t assoc_id_;
  Config base_;
  Options options_;
  std::size_t index_ = 0;       // current ladder rung
  std::size_t top_ = 0;         // highest permitted rung
  /// Highest rung held before the current demotion episode. Promotions jump
  /// straight back here (one rekey, not one per rung): the rung was proven
  /// sustainable before the disturbance, so re-climbing stepwise only burns
  /// lean-rung overhead re-proving it.
  std::size_t snap_back_ = 0;
  double loss_ewma_ = 0.0;
  int clean_windows_ = 0;
  int cooldown_left_ = 0;
  /// Consecutive evaluations with budget pressure / unhealthy watchdog.
  /// One hot window steps down a rung; two in a row mean the in-flight
  /// round is pinned (a partition, not a blip) and drop straight to the
  /// most robust rung -- the loss EWMA is blind there, because an S1-phase
  /// round retransmits one frame per backoff and every window falls under
  /// min_window_sends.
  int budget_streak_ = 0;
  int health_streak_ = 0;
  /// Virtual time of the last pressure signal or committed switch; the
  /// promote_hold_us gate measures clean time from here.
  std::uint64_t last_pressure_us_ = 0;
  bool evaluated_once_ = false;
  std::uint64_t last_eval_us_ = 0;
  std::uint64_t evaluations_ = 0;
  std::uint64_t switches_ = 0;
  AdaptSignals acc_{};  // deltas of the open observation window
  std::uint64_t window_intervals_ = 0;  // evaluations it has stayed open
};

}  // namespace alpha::core
