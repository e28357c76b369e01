// Reference relay engine (hop-by-hop authentication); test-only.
//
// This is the straightforward one-frame-at-a-time statement of the relay
// decision procedure. The runtime never constructs it: every relay binding
// runs core::RelayPipeline (core/relay_pipeline.hpp). The test suites
// compare that engine against this one frame for frame, and bench_relay_mpps
// times this one as its reference row. The shared vocabulary types
// (Direction, RelayDecision, RelayEngine::Options) live here too.
//
// The distinguishing capability of ALPHA (paper §1, §3.1.1): forwarding
// nodes authenticate traffic in transit. A relay learns both endpoints'
// chain anchors by observing the handshake, then
//
//  * authenticates every S1 by its chain element and buffers the
//    pre-signatures (small: hashes only, Table 2 relay column),
//  * authenticates every A1 and records the verifier's willingness to
//    receive -- S2 data without a matching S1+A1 context is dropped as
//    unsolicited, which stops flooding one hop from the source (§3.5),
//  * checks every S2 against the buffered pre-signature once the key is
//    disclosed, dropping forgeries *before* they consume downstream
//    bandwidth, and extracting authenticated payloads for on-path services
//    (secure middlebox signaling),
//  * verifies disclosed (n)acks against the A1 commitments (§3.2.2), which
//    lets on-path state machines act on confirmed delivery.
//
// A duplex association is two simplex flows; packet direction plus type
// selects the flow (S1/S2 travel with the flow, A1/A2 against it).
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "core/config.hpp"
#include "core/stats.hpp"
#include "crypto/mac.hpp"
#include "hashchain/chain.hpp"
#include "trace/trace.hpp"
#include "wire/packets.hpp"

namespace alpha::core {

/// Travel direction of a frame through this relay.
enum class Direction : std::uint8_t {
  kForward = 0,  // initiator -> responder
  kReverse = 1,  // responder -> initiator
};

constexpr Direction opposite(Direction d) noexcept {
  return d == Direction::kForward ? Direction::kReverse : Direction::kForward;
}

/// What the relay decided about a frame (also reflected in stats()).
enum class RelayDecision : std::uint8_t {
  kForwarded = 1,
  kDroppedInvalid = 2,      // failed authentication
  kDroppedUnsolicited = 3,  // no S1/A1 context
  kDroppedMalformed = 4,    // undecodable
};

class RelayEngine {
 public:
  struct Options {
    /// Drop protocol packets for associations with no observed handshake.
    /// Off = incremental deployment (forward unverifiable traffic).
    bool require_handshake = true;
    /// Verify public-key signatures on protected handshakes (expensive;
    /// feasible for WMN/WSN, prohibitive for high-churn MANETs, §3.4).
    bool verify_handshake_signatures = false;
  };

  struct Callbacks {
    /// Forwards the (verbatim) frame onward in its travel direction. The
    /// view is only valid for the duration of the call: copy it if the
    /// transport needs ownership. Passing a view instead of a fresh Bytes
    /// keeps the relay data path allocation-free.
    std::function<void(Direction, crypto::ByteView)> forward;
    /// Authenticated payload extracted from a forwarded S2 (§3.5 secure
    /// signaling to middleboxes).
    std::function<void(std::uint32_t assoc_id, std::uint32_t seq,
                       std::uint16_t msg_index, crypto::ByteView payload)>
        on_extracted;
  };

  RelayEngine(Config config, Options options, Callbacks callbacks);

  /// Processes one frame traveling in `dir`; forwards or drops it.
  RelayDecision on_frame(Direction dir, crypto::ByteView frame);

  const RelayStats& stats() const noexcept { return stats_; }

  /// Buffered bytes across all associations (Table 2 relay column: n*h).
  std::size_t buffered_bytes() const noexcept;
  /// Buffered acknowledgment commitments (Table 3 relay column: 2n*h).
  std::size_t ack_buffered_bytes() const noexcept;

 private:
  struct RelayRound {
    Mode mode = Mode::kBase;
    std::size_t s1_index = 0;
    std::vector<crypto::Digest> macs;
    crypto::Digest merkle_root;
    std::uint16_t leaf_count = 0;
    std::vector<crypto::Digest> merkle_roots;  // ALPHA-C+M
    std::uint16_t group_size = 0;              // ALPHA-C+M
    bool a1_seen = false;

    wire::AckScheme scheme = wire::AckScheme::kNone;
    std::size_t a1_ack_index = 0;
    std::vector<crypto::Digest> pre_acks;
    std::vector<crypto::Digest> pre_nacks;
    crypto::Digest amt_root;
    std::uint16_t amt_count = 0;

    std::optional<crypto::Digest> disclosed;      // accepted MAC key
    // Key schedule for `disclosed` (non-tree modes), shared by all S2
    // checks of the round; uses the association's negotiated algorithm.
    std::optional<crypto::MacContext> mac_ctx;
    std::optional<crypto::Digest> ack_disclosed;  // accepted A2 key

    std::size_t message_count() const noexcept {
      if (mode == Mode::kMerkle || mode == Mode::kCumulativeMerkle) {
        return leaf_count;
      }
      return macs.size();
    }
  };

  struct FlowState {
    std::optional<hashchain::ChainVerifier> sig;  // signer's chain
    std::optional<hashchain::ChainVerifier> ack;  // verifier's ack chain
    crypto::Digest sig_anchor;  // detects duplicate handshakes (replay)
    std::map<std::uint32_t, RelayRound> rounds;   // by seq
  };

  struct AssocState {
    crypto::HashAlgo algo = crypto::HashAlgo::kSha1;
    bool handshake_seen = false;
    FlowState flows[2];  // indexed by Direction
  };

  RelayDecision handle_handshake(Direction dir,
                                 const wire::HandshakePacket& hs,
                                 crypto::ByteView frame);
  RelayDecision handle_s1(Direction dir, const wire::S1Packet& s1,
                          crypto::ByteView frame);
  RelayDecision handle_a1(Direction dir, const wire::A1Packet& a1,
                          crypto::ByteView frame);
  RelayDecision handle_s2(Direction dir, const wire::S2Packet& s2,
                          crypto::ByteView frame);
  RelayDecision handle_a2(Direction dir, const wire::A2Packet& a2,
                          crypto::ByteView frame);

  RelayDecision forward(Direction dir, crypto::ByteView frame);
  RelayDecision drop(RelayDecision decision, crypto::ByteView frame,
                     trace::DropReason reason);

  Config config_;
  Options options_;
  Callbacks callbacks_;
  std::map<std::uint32_t, AssocState> assocs_;
  RelayStats stats_;
};

}  // namespace alpha::core
