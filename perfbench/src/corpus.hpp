// Engine-authentic traffic for the relay replay and the per-layer ledger.
//
// Each association runs a real SignerEngine/VerifierEngine pair offline, so
// every frame is exactly what the protocol would put on the wire. Rounds
// are interleaved round-robin across the associations (all S1s of a round,
// all A1s, then the S2s and A2s message-wise), so consecutive frames never
// share an association and relay state is touched in its worst order.
// Generation is set-up work: it never runs inside a timed window.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/relay.hpp"
#include "core/stats.hpp"
#include "crypto/bytes.hpp"
#include "crypto/digest.hpp"

namespace perfbench {

enum class FrameKind : std::uint8_t { kHs1, kHs2, kS1, kA1, kS2, kA2 };

struct CorpusSpec {
  alpha::core::Config config;
  std::vector<std::uint32_t> assoc_ids;
  std::size_t rounds = 1;
  /// Payload sizes with their relative weights (by count).
  std::vector<std::pair<std::size_t, unsigned>> payload_mix;
  /// Share of S2 frames forged: one payload byte flipped, CRC resealed.
  double forged_share = 0.0;
  std::uint64_t seed = 1;
};

struct Frame {
  std::size_t offset = 0;  // into Corpus::arena
  std::uint32_t len = 0;
  std::uint32_t assoc = 0;  // index into CorpusSpec::assoc_ids
  std::uint32_t seq = 0;
  alpha::core::Direction dir = alpha::core::Direction::kForward;
  FrameKind kind = FrameKind::kS2;
  bool forged = false;
};

/// Chain anchors the relay learns from an association's handshake.
struct AssocAnchors {
  alpha::crypto::Digest sig_anchor;
  std::size_t sig_index = 0;
  alpha::crypto::Digest ack_anchor;
  std::size_t ack_index = 0;
};

struct Corpus {
  alpha::core::Config config;
  std::vector<std::uint8_t> arena;
  std::vector<Frame> handshakes;  // HS1 + HS2 per association
  std::vector<Frame> schedule;    // the interleaved rounds
  std::vector<AssocAnchors> anchors;
  alpha::core::HashWork signer_hashes;    // spent generating the traffic
  alpha::core::HashWork verifier_hashes;
  std::uint64_t messages = 0;
  std::uint64_t forged_frames = 0;
  /// Payloads of the first messages (for the Merkle ledger terms).
  std::vector<alpha::crypto::Bytes> sample_payloads;

  alpha::crypto::ByteView bytes(const Frame& f) const {
    return {arena.data() + f.offset, f.len};
  }
};

/// Runs the engines and lays out the schedule. Throws std::runtime_error
/// if the engines do not emit the expected frames.
Corpus generate_corpus(const CorpusSpec& spec);

/// Marks one authentic S2 as forged without altering it: the relay will
/// forward it, so the checks must report a forged frame forwarded.
void inject_false_forgery(Corpus& corpus);

/// Payload view of an S2 frame (the bytes just before the CRC trailer).
alpha::crypto::ByteView s2_payload(alpha::crypto::ByteView frame);

}  // namespace perfbench
