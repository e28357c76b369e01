// One round's commitments (paper §3.2-3.3, Figs. 2, 3 and 7), stated once
// for the verifier (S2 check), the signer (A2 check) and RelayPipeline
// (both). An S1 commits to one MAC per message (base, ALPHA-C) or to one
// keyed Merkle root per group of messages (ALPHA-C+M; ALPHA-M is the case
// with one group, mapped in SignatureCommitment::assign() and write()). An
// A1 commits to a pre-ack/pre-nack pair per message or to one keyed AMT
// root; AckSecrets is the verifier's side of it. Tables 2 and 3 count
// exactly these. Hash accounting and drop reasons stay with the callers.
// RelayEngine (core/relay.hpp) keeps its own copy as the test reference.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "crypto/mac.hpp"
#include "crypto/random.hpp"
#include "merkle/amt.hpp"
#include "merkle/merkle.hpp"
#include "wire/packets.hpp"

namespace alpha::core {

/// §3.5: verifiers and relays buffer the pre-signatures of at most this
/// many messages per S1, bounding memory-exhaustion floods.
inline constexpr std::size_t kMaxRoundMessages = 4096;

/// The S1 pre-signatures of one round. assign() and clear() keep vector
/// capacity, so a recycled relay round does not allocate.
class SignatureCommitment {
 public:
  /// Whether `s1` pre-signs between 1 and kMaxRoundMessages messages.
  static bool admissible(const wire::S1Packet& s1) noexcept;

  /// Verifier / relay side: takes the commitments of an admissible S1.
  void assign(const wire::S1Packet& s1);
  /// Signer side: the MACs of a `message_count`-message round (base /
  /// ALPHA-C, `group_size` 0), or one keyed root per group of `group_size`
  /// messages (ALPHA-M: one group of all of them).
  void commit(Mode mode, std::vector<crypto::Digest> macs_or_roots,
              std::size_t message_count, std::size_t group_size);
  /// Writes the committed mode and MACs or roots into `s1`.
  void write(wire::S1Packet& s1) const;
  void clear() noexcept {
    mode_ = Mode::kBase;
    count_ = group_size_ = 0;
    digests_.clear();
    mac_ctx_.reset();
  }

  Mode mode() const noexcept { return mode_; }
  std::size_t message_count() const noexcept { return count_; }
  /// Whether the round is pre-signed by Merkle roots (ALPHA-M, C+M).
  bool uses_trees() const noexcept { return group_size_ != 0; }
  /// Messages per tree (0 for MAC rounds).
  std::size_t group_size() const noexcept { return group_size_; }

  /// Checks message `msg_index` (< message_count()) disclosed under the
  /// already-authenticated `key`: its MAC, under a MacContext built on the
  /// round's first call and reused after, or its {Bc} branch `path`
  /// (nullptr when the S2 carried none) against its group's keyed root.
  bool verify(crypto::HashAlgo algo, crypto::MacKind mac_kind,
              const crypto::Digest& key, std::size_t msg_index,
              crypto::ByteView payload, const merkle::AuthPath* path);

  /// Table 2 verifier/relay column: n*h for base/ALPHA-C, h for ALPHA-M,
  /// one h per root for ALPHA-C+M.
  std::size_t buffered_bytes(std::size_t digest_size) const noexcept {
    return digests_.size() * digest_size;
  }

 private:
  Mode mode_ = Mode::kBase;
  std::size_t count_ = 0;
  std::size_t group_size_ = 0;           // 0: one MAC per message
  std::vector<crypto::Digest> digests_;  // the MACs, or the roots
  std::optional<crypto::MacContext> mac_ctx_;
};

/// The A1 acknowledgment commitments of one round; storage recycled as in
/// SignatureCommitment.
class AckCommitment {
 public:
  /// Messages `a1` commits to: its pre-ack pairs, or the AMT's count.
  static std::size_t message_count(const wire::A1Packet& a1) noexcept {
    return a1.scheme == wire::AckScheme::kAmt ? a1.amt_msg_count
                                              : a1.pre_acks.size();
  }

  void assign(const wire::A1Packet& a1);
  void clear() noexcept {
    scheme_ = wire::AckScheme::kNone;
    pre_acks_.clear();
    pre_nacks_.clear();
  }

  wire::AckScheme scheme() const noexcept { return scheme_; }

  /// Checks the (n)ack `a2` discloses (msg_index below the committed count)
  /// against its pre-ack/pre-nack or the AMT root; false without a scheme.
  bool verify(crypto::HashAlgo algo, const wire::A2Packet& a2) const;

  /// Table 3 relay column: 2n*h for pre-acks, h for an AMT root.
  std::size_t buffered_bytes(std::size_t digest_size) const noexcept {
    if (scheme_ == wire::AckScheme::kAmt) return digest_size;
    return (pre_acks_.size() + pre_nacks_.size()) * digest_size;
  }

 private:
  wire::AckScheme scheme_ = wire::AckScheme::kNone;
  std::vector<crypto::Digest> pre_acks_;
  std::vector<crypto::Digest> pre_nacks_;
  crypto::Digest amt_root_;
  std::uint16_t amt_count_ = 0;
};

/// The verifier's acknowledgment secrets for one round: committed to in the
/// A1, disclosed one (n)ack at a time in A2 packets.
class AckSecrets {
 public:
  /// Draws secrets for `message_count` messages and writes their
  /// commitments under `key` into `a1`: one AMT root for a tree round
  /// (§3.3.3), one pre-ack/pre-nack pair per message otherwise (§3.2.2).
  void commit(const Config& config, bool tree, std::size_t message_count,
              const crypto::Digest& key, crypto::RandomSource& rng,
              wire::A1Packet& a1);
  /// Writes the scheme, secret and AMT branch that (n)ack message `index`.
  void disclose(std::size_t index, bool ack, wire::A2Packet& a2) const;

  /// Table 3 verifier column: the secrets, or the whole AMT.
  std::size_t buffered_bytes() const noexcept;

 private:
  std::vector<crypto::Bytes> secrets_;  // per message: ack, then nack
  std::optional<merkle::AckMerkleTree> amt_;
};

}  // namespace alpha::core
