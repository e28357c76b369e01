// Mutation fuzz: no single-bit-flipped (or randomly mutated) protocol frame
// may ever be accepted by the verifier or forwarded by the relay as valid.
// The only frames that may have an effect are the untouched originals.
//
// Relay fuzzing runs on the reference RelayEngine and on the runtime's
// RelayPipeline at batch 1 and 8. Raw mutations die at the CRC-32 trailer;
// the resealed variant recomputes it so every mutation reaches the parser
// and the authentication checks.
#include <gtest/gtest.h>

#include "core/signer.hpp"
#include "core/verifier.hpp"
#include "relay_under_test.hpp"
#include "test_bus.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using crypto::ByteView;
using crypto::HmacDrbg;
using testing::RelayKind;
using testing::RelayUnderTest;

// Captures one complete reliable round's frames (S1, A1, S2, A2). Batched
// modes submit a full batch; s2/a2 are the round's first message, s2s all
// of its S2s and payloads the genuine payload of each message index.
struct CapturedRound {
  Bytes s1, a1, s2, a2;
  hashchain::HashChain sig_chain;
  hashchain::HashChain ack_chain;
  Config config;
  std::vector<Bytes> s2s;
  std::vector<Bytes> payloads;

  static CapturedRound make() {
    Config config;
    config.reliable = true;
    return make(config);
  }

  static CapturedRound make(const Config& config) {
    HmacDrbg rng{17};
    auto sig = hashchain::HashChain::generate(
        config.algo, hashchain::ChainTagging::kRoleBound, rng, 64);
    auto ack = hashchain::HashChain::generate(
        config.algo, hashchain::ChainTagging::kRoleBound, rng, 64);

    CapturedRound cap{Bytes{}, Bytes{}, Bytes{}, Bytes{}, sig, ack, config,
                      {}, {}};

    std::vector<Bytes> to_v, to_s;
    SignerEngine::Callbacks scb;
    scb.send = [&](Bytes f) { to_v.push_back(std::move(f)); };
    SignerEngine signer{config, 1, sig, ack.anchor(), ack.length(),
                        std::move(scb)};
    VerifierEngine::Callbacks vcb;
    vcb.send = [&](Bytes f) { to_s.push_back(std::move(f)); };
    VerifierEngine verifier{config, 1,    ack,           sig.anchor(),
                            sig.length(), std::move(vcb), rng};

    const auto payload = crypto::as_bytes("fuzz me");
    for (std::size_t i = 0; i < config.effective_batch(); ++i) {
      Bytes message(payload.begin(), payload.end());
      if (i > 0) message.push_back(static_cast<std::uint8_t>('0' + i));
      cap.payloads.push_back(message);
      signer.submit(std::move(message), 0);
    }
    cap.s1 = to_v.at(0);
    verifier.on_s1(std::get<wire::S1Packet>(*wire::decode(cap.s1)));
    cap.a1 = to_s.at(0);
    signer.on_a1(std::get<wire::A1Packet>(*wire::decode(cap.a1)), 0);
    cap.s2s.assign(to_v.begin() + 1, to_v.end());
    cap.s2 = cap.s2s.at(0);
    for (const Bytes& s2 : cap.s2s) {
      verifier.on_s2(std::get<wire::S2Packet>(*wire::decode(s2)));
    }
    cap.a2 = to_s.at(1);
    return cap;
  }
};

// Fresh verifier initialized to the same anchors (accepts the original
// round exactly once).
struct FreshVerifier {
  explicit FreshVerifier(const CapturedRound& cap)
      : rng(99),
        verifier(cap.config, 1, cap.ack_chain, cap.sig_chain.anchor(),
                 cap.sig_chain.length(),
                 VerifierEngine::Callbacks{
                     [](Bytes) {},
                     [this](std::uint32_t, std::uint16_t, ByteView) {
                       ++delivered;
                     }},
                 rng) {}

  HmacDrbg rng;
  std::size_t delivered = 0;
  VerifierEngine verifier;
};

void feed(VerifierEngine& v, ByteView frame) {
  const auto packet = wire::decode(frame);
  if (!packet.has_value()) return;
  if (const auto* s1 = std::get_if<wire::S1Packet>(&*packet)) {
    v.on_s1(*s1);
  } else if (const auto* s2 = std::get_if<wire::S2Packet>(&*packet)) {
    v.on_s2(*s2);
  }
}

TEST(MutationFuzzTest, NoSingleBitFlipDeliversAMessage) {
  const CapturedRound cap = CapturedRound::make();

  for (const Bytes* frame : {&cap.s1, &cap.s2}) {
    for (std::size_t byte = 0; byte < frame->size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        FreshVerifier fv{cap};
        // Mutated S1 first (where applicable), then genuine S1, then the
        // mutated S2 -- covering both packet positions.
        if (frame == &cap.s1) {
          Bytes mutated = cap.s1;
          mutated[byte] ^= static_cast<std::uint8_t>(1 << bit);
          feed(fv.verifier, mutated);
          feed(fv.verifier, cap.s2);
        } else {
          feed(fv.verifier, cap.s1);
          Bytes mutated = cap.s2;
          mutated[byte] ^= static_cast<std::uint8_t>(1 << bit);
          feed(fv.verifier, mutated);
        }
        ASSERT_EQ(fv.delivered, 0u)
            << "bit flip accepted: frame="
            << (frame == &cap.s1 ? "S1" : "S2") << " byte=" << byte
            << " bit=" << bit;
      }
    }
  }

  // Control: the untouched round delivers exactly once.
  FreshVerifier fv{cap};
  feed(fv.verifier, cap.s1);
  feed(fv.verifier, cap.s2);
  EXPECT_EQ(fv.delivered, 1u);
}

// The relays the fuzz runs on: the reference, and the runtime's pipeline
// flushing every frame and batching 8.
struct RelayVariant {
  RelayKind kind;
  std::size_t batch;
};
constexpr RelayVariant kRelayVariants[] = {
    {RelayKind::kReference, 1},
    {RelayKind::kPipeline, 1},
    {RelayKind::kPipeline, 8},
};

std::string variant_name(const RelayVariant& v) {
  return std::string(testing::relay_kind_name(v.kind)) +
         " batch=" + std::to_string(v.batch);
}

struct Extraction {
  std::uint16_t msg_index;
  Bytes payload;
};

/// Teaches a fresh relay the captured round's anchors through a handshake
/// pair, feeds it `frames` and returns every payload it extracted.
std::vector<Extraction> relay_round(
    const RelayVariant& variant, const CapturedRound& cap,
    const std::vector<std::pair<Direction, Bytes>>& frames) {
  std::vector<Extraction> extracted;
  RelayUnderTest relay{
      variant.kind, cap.config, RelayEngine::Options{}, {},
      [&](std::uint32_t, std::uint32_t, std::uint16_t msg_index,
          ByteView payload) {
        extracted.push_back({msg_index, Bytes(payload.begin(), payload.end())});
      },
      variant.batch};

  wire::HandshakePacket hs;
  hs.hdr = {1, 1};
  hs.algo = cap.config.algo;
  hs.chain_length = 64;
  hs.sig_anchor = cap.sig_chain.anchor();
  hs.sig_anchor_index = 64;
  hs.ack_anchor = cap.ack_chain.anchor();
  hs.ack_anchor_index = 64;
  relay.feed(Direction::kForward, hs.encode());
  wire::HandshakePacket hs2 = hs;
  hs2.is_response = true;
  relay.feed(Direction::kReverse, hs2.encode());

  for (const auto& [dir, frame] : frames) relay.feed(dir, frame);
  relay.flush();
  return extracted;
}

TEST(MutationFuzzTest, RelayForwardsNoMutatedPayloads) {
  const CapturedRound cap = CapturedRound::make();

  for (const RelayVariant& variant : kRelayVariants) {
    SCOPED_TRACE(variant_name(variant));
    HmacDrbg rng{7};
    for (int iter = 0; iter < 500; ++iter) {
      // Random multi-byte mutation of the S2.
      Bytes mutated = cap.s2;
      const std::size_t flips = 1 + rng.uniform(4);
      for (std::size_t f = 0; f < flips; ++f) {
        mutated[rng.uniform(mutated.size())] ^=
            static_cast<std::uint8_t>(1 + rng.uniform(255));
      }
      if (mutated == cap.s2) continue;  // mutation cancelled itself out
      const auto extracted =
          relay_round(variant, cap,
                      {{Direction::kForward, cap.s1},
                       {Direction::kReverse, cap.a1},
                       {Direction::kForward, mutated}});
      ASSERT_TRUE(extracted.empty()) << "iter " << iter;
    }
  }
}

TEST(MutationFuzzTest, RelayExtractsNoForgedPayloadFromResealedMutations) {
  // Resealed mutations pass the checksum, so they reach the parser and the
  // S1/A1/S2 checks. Whatever one frame of the round turns into, the relay
  // may only ever extract a message's genuine payload.
  Config base;
  base.reliable = true;
  Config alpha_c = base;
  alpha_c.mode = Mode::kCumulative;
  alpha_c.batch_size = 4;
  Config alpha_m = base;
  alpha_m.mode = Mode::kMerkle;
  alpha_m.batch_size = 4;

  for (const Config& config : {base, alpha_c, alpha_m}) {
    const CapturedRound cap = CapturedRound::make(config);
    std::vector<std::pair<Direction, Bytes>> genuine = {
        {Direction::kForward, cap.s1}, {Direction::kReverse, cap.a1}};
    for (const Bytes& s2 : cap.s2s) {
      genuine.push_back({Direction::kForward, s2});
    }

    // Control: the untouched round extracts every genuine payload.
    for (const RelayVariant& variant : kRelayVariants) {
      SCOPED_TRACE(variant_name(variant));
      ASSERT_EQ(relay_round(variant, cap, genuine).size(),
                cap.payloads.size());
    }

    for (const RelayVariant& variant : kRelayVariants) {
      SCOPED_TRACE(variant_name(variant) + " mode=" +
                   std::to_string(static_cast<int>(config.mode)));
      HmacDrbg rng{0x5ea1};
      for (int iter = 0; iter < 400; ++iter) {
        auto frames = genuine;
        Bytes& target = frames[rng.uniform(frames.size())].second;
        const std::size_t body = target.size() - wire::kFrameChecksumSize;
        const std::size_t flips = 1 + rng.uniform(4);
        for (std::size_t f = 0; f < flips; ++f) {
          target[rng.uniform(body)] ^=
              static_cast<std::uint8_t>(1 + rng.uniform(255));
        }
        testing::reseal(target);
        for (const Extraction& e : relay_round(variant, cap, frames)) {
          ASSERT_LT(e.msg_index, cap.payloads.size()) << "iter " << iter;
          ASSERT_EQ(e.payload, cap.payloads[e.msg_index]) << "iter " << iter;
        }
      }
    }
  }
}

}  // namespace
}  // namespace alpha::core
