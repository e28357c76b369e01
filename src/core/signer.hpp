// Signer-side protocol engine.
//
// Runs one simplex ALPHA channel as the signer (paper §3.1, Fig. 2):
// queues application messages, opens signature rounds (S1 with fresh chain
// element + pre-signatures), releases payloads on A1 (S2 with key
// disclosure), and, in reliable mode, matches A2 (n)acks against the
// pre-(n)ack commitments from the A1 (§3.2.2) or the AMT root (§3.3.3),
// both held and checked by core/commitment.hpp.
//
// Transport-agnostic and clockless: packets leave through the send callback,
// time enters through the `now_us` arguments. Retransmission of S1 (and S2
// when reliable) follows Config::rto_us / max_retries.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/commitment.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "hashchain/chain.hpp"
#include "merkle/merkle.hpp"
#include "wire/packets.hpp"

namespace alpha::core {

using crypto::Bytes;
using crypto::ByteView;
using crypto::Digest;

/// Outcome of one submitted message, reported once known.
enum class DeliveryStatus : std::uint8_t {
  kAcked,      // verifier confirmed receipt (reliable mode)
  kNacked,     // verifier rejected the S2 payload
  kSent,       // S2 released; no confirmation in unreliable mode
  kFailed,     // retries exhausted or chain exhausted
};

class SignerEngine {
 public:
  struct Callbacks {
    /// Emits one encoded packet toward the verifier.
    std::function<void(Bytes)> send;
    /// Reports the fate of message `cookie` (the value submit() returned).
    std::function<void(std::uint64_t cookie, DeliveryStatus)> on_delivery;
  };

  /// `sig_chain` is this signer's own signature chain (ownership moves in);
  /// `ack_anchor`/`ack_anchor_index` come from the peer's handshake.
  SignerEngine(Config config, std::uint32_t assoc_id,
               hashchain::HashChain sig_chain, Digest ack_anchor,
               std::size_t ack_anchor_index, Callbacks callbacks);

  /// Queues a message; returns a cookie identifying it in on_delivery.
  /// Pass `cookie` to use a caller-assigned identifier instead (must be
  /// unique). `resubmission` re-queues a message drained from a retired
  /// engine during rekeying without counting it as a new submission.
  /// Throws std::length_error if the message cannot fit a packet.
  std::uint64_t submit(Bytes message, std::uint64_t now_us,
                       std::optional<std::uint64_t> cookie = std::nullopt,
                       bool resubmission = false);

  void on_a1(const wire::A1Packet& a1, std::uint64_t now_us);
  void on_a2(const wire::A2Packet& a2, std::uint64_t now_us);

  /// Drives retransmissions; call periodically (e.g. every rto/4).
  void on_tick(std::uint64_t now_us);

  /// Absolute time of the next retransmission deadline (with backoff), 0 if
  /// a backlog wants flushing as soon as possible, nullopt when idle. Lets
  /// the node runtime arm its timer wheel at the true deadline instead of a
  /// fixed cadence.
  std::optional<std::uint64_t> next_deadline_us() const noexcept;

  /// False once the signature chain cannot cover another round.
  bool can_send() const noexcept;

  /// Undisclosed signature-chain elements left (2 consumed per round).
  std::size_t chain_remaining() const noexcept { return walker_.remaining(); }

  /// Removes and returns all messages not yet confirmed delivered: the
  /// unsettled part of any in-flight round plus the queued backlog, as
  /// (cookie, payload). Used when rotating to fresh chains (rekeying).
  std::vector<std::pair<std::uint64_t, Bytes>> drain_backlog();

  /// While paused the engine queues submissions but opens no new rounds
  /// (used during a rekey handshake).
  void set_paused(bool paused) noexcept { paused_ = paused; }

  /// Messages queued but not yet in an active round.
  std::size_t backlog() const noexcept { return queue_.size(); }
  bool round_active() const noexcept { return round_.has_value(); }
  /// Round-progress probes for the health watchdog: sequence number and
  /// retransmit attempts of the in-flight round (0 when idle).
  std::uint32_t round_seq() const noexcept {
    return round_.has_value() ? round_->seq : 0;
  }
  std::uint32_t round_retries() const noexcept {
    return round_.has_value() ? static_cast<std::uint32_t>(round_->retries) : 0;
  }

  /// Bytes buffered for the active round: payloads + signature state
  /// (Table 2 signer column: n(m+h) for base/C, n*m + (2n-1)h for M).
  std::size_t buffered_bytes() const noexcept;

  const SignerStats& stats() const noexcept { return stats_; }
  std::uint32_t assoc_id() const noexcept { return assoc_id_; }

  /// Next auto-assigned submission cookie. Exposed so a rekey can carry the
  /// counter into the replacement engine: a fresh engine restarting at 1
  /// would re-issue cookies the retired generations already handed out.
  std::uint64_t next_cookie() const noexcept { return next_cookie_; }
  /// Advances the cookie counter to at least `next` (never moves backward).
  void seed_cookies(std::uint64_t next) noexcept {
    if (next > next_cookie_) next_cookie_ = next;
  }

 private:
  struct QueuedMessage {
    std::uint64_t cookie;
    Bytes payload;
    std::uint64_t submit_us = 0;  // when submit() queued it (span queueing)
  };

  struct Round {
    std::uint32_t seq = 0;
    std::vector<QueuedMessage> messages;
    std::size_t s1_index = 0;   // odd chain index in the S1
    Digest h_i;                 // signer element authenticating the S1
    Digest h_im1;               // MAC key, disclosed in S2 packets
    SignatureCommitment sig;    // the MACs or keyed roots the S1 carries
    std::vector<merkle::MerkleTree> trees;  // one per root, for {Bc}
    Bytes s1_frame;             // cached for retransmission

    enum class State { kAwaitA1, kAwaitA2 } state = State::kAwaitA1;
    std::uint64_t last_send_us = 0;
    int retries = 0;

    // Reliable-mode commitments from the A1.
    AckCommitment acks;
    std::size_t a1_ack_index = 0;  // odd ack element index from the A1
    std::vector<std::uint8_t> settled;  // per message: 0 open, 1 done
    std::vector<std::uint8_t> nack_retries;  // selective-repeat budget used
    std::size_t settled_count = 0;
  };

  void maybe_start_round(std::uint64_t now_us, bool flush = false);
  std::uint64_t retransmit_salt() const noexcept;
  void send_s1(std::uint64_t now_us);
  void send_s2_batch(std::uint64_t now_us);
  Bytes make_s2(const Round& round, std::size_t index) const;
  void finish_round(bool success);
  void settle(std::size_t index, DeliveryStatus status);

  Config config_;
  std::uint32_t assoc_id_;
  hashchain::HashChain sig_chain_;
  hashchain::ChainWalker walker_;
  hashchain::ChainVerifier ack_verifier_;
  Callbacks callbacks_;

  std::deque<QueuedMessage> queue_;
  std::optional<Round> round_;
  std::uint32_t next_seq_ = 1;
  std::uint64_t next_cookie_ = 1;
  bool paused_ = false;
  SignerStats stats_;
};

}  // namespace alpha::core
