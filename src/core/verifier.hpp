// Verifier-side protocol engine.
//
// Runs one simplex ALPHA channel as the verifier (paper §3.1, Fig. 2):
// authenticates S1 packets against the signer's chain, buffers the
// pre-signatures, answers with A1 (committing pre-(n)acks or an AMT root in
// reliable mode), verifies each S2 against the buffered commitment once the
// MAC key is disclosed, delivers valid payloads to the application, and
// discloses (n)acks in A2 packets. Commitments are core/commitment.hpp's.
//
// Duplicate S1/S2 packets (retransmissions) are answered idempotently from
// cached frames, so a lossy network converges without protocol state drift.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/commitment.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "hashchain/chain.hpp"
#include "wire/packets.hpp"

namespace alpha::core {

class VerifierEngine {
 public:
  struct Callbacks {
    /// Emits one encoded packet toward the signer.
    std::function<void(crypto::Bytes)> send;
    /// Delivers one authenticated message.
    std::function<void(std::uint32_t seq, std::uint16_t msg_index,
                       crypto::ByteView payload)>
        on_message;
  };

  /// `ack_chain` is this verifier's own acknowledgment chain (moves in);
  /// `sig_anchor`/`sig_anchor_index` come from the signer's handshake.
  VerifierEngine(Config config, std::uint32_t assoc_id,
                 hashchain::HashChain ack_chain, crypto::Digest sig_anchor,
                 std::size_t sig_anchor_index, Callbacks callbacks,
                 crypto::RandomSource& rng);

  void on_s1(const wire::S1Packet& s1);
  void on_s2(const wire::S2Packet& s2);

  /// Flood mitigation (§3.5): when false, S1 packets are ignored instead of
  /// answered, so unsolicited data cannot obtain the A1 it needs to travel.
  void set_accepting(bool accepting) noexcept { accepting_ = accepting; }
  bool accepting() const noexcept { return accepting_; }

  /// Pre-signature buffer across pending rounds (Table 2 verifier column:
  /// n*h for base/ALPHA-C, h per round for ALPHA-M).
  std::size_t buffered_bytes() const noexcept;
  /// Acknowledgment state (Table 3 verifier column).
  std::size_t ack_buffered_bytes() const noexcept;

  const VerifierStats& stats() const noexcept { return stats_; }
  std::uint32_t assoc_id() const noexcept { return assoc_id_; }

 private:
  struct PendingRound {
    std::size_t s1_index = 0;       // odd element index from the S1
    crypto::Digest s1_element;      // for duplicate detection
    SignatureCommitment sig;        // the S1's MACs or roots
    crypto::Bytes a1_frame;         // cached for duplicate S1

    // Reliable mode state.
    std::size_t a1_ack_index = 0;   // odd ack element in the A1
    crypto::Digest ack_key;         // h^Va_{i-1}, disclosed in A2 packets
    AckSecrets acks;                // behind the A1's pre-(n)acks or AMT

    std::optional<crypto::Digest> disclosed;  // accepted MAC key
    std::vector<std::uint8_t> received;       // 1 once delivered
    std::size_t delivered = 0;
    std::map<std::uint16_t, crypto::Bytes> a2_frames;  // idempotent resend
  };

  void send_a2(PendingRound& round, std::uint32_t seq, std::uint16_t index,
               bool ack);
  void retire_old_rounds();

  Config config_;
  std::uint32_t assoc_id_;
  hashchain::HashChain ack_chain_;
  hashchain::ChainWalker walker_;
  hashchain::ChainVerifier sig_verifier_;
  Callbacks callbacks_;
  crypto::RandomSource* rng_;
  bool accepting_ = true;

  std::map<std::uint32_t, PendingRound> rounds_;  // by seq
  VerifierStats stats_;
};

}  // namespace alpha::core
