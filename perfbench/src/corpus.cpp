#include "corpus.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <variant>

#include "common.hpp"
#include "core/signer.hpp"
#include "core/verifier.hpp"
#include "crypto/random.hpp"
#include "hashchain/chain.hpp"
#include "wire/packets.hpp"

namespace perfbench {

using alpha::core::Direction;
using alpha::crypto::Bytes;
namespace wire = alpha::wire;
namespace core = alpha::core;

namespace {

/// One association's offline endpoint pair plus the frames its engines
/// emitted since the last take().
struct AssocGen {
  AssocGen(const core::Config& config, std::uint32_t assoc_id,
           std::uint64_t seed)
      : rng(seed),
        sig(alpha::hashchain::HashChain::generate(
            config.algo, alpha::hashchain::ChainTagging::kRoleBound, rng,
            config.chain_length)),
        ack(alpha::hashchain::HashChain::generate(
            config.algo, alpha::hashchain::ChainTagging::kRoleBound, rng,
            config.chain_length)),
        signer(config, assoc_id, sig, ack.anchor(), ack.length(),
               core::SignerEngine::Callbacks{
                   [this](Bytes f) { emitted.push_back(std::move(f)); },
                   nullptr}),
        verifier(config, assoc_id, ack, sig.anchor(), sig.length(),
                 core::VerifierEngine::Callbacks{
                     [this](Bytes f) { emitted.push_back(std::move(f)); },
                     nullptr},
                 rng) {}
  AssocGen(const AssocGen&) = delete;
  AssocGen& operator=(const AssocGen&) = delete;

  std::vector<Bytes> take() { return std::exchange(emitted, {}); }

  alpha::crypto::HmacDrbg rng;
  alpha::hashchain::HashChain sig;
  alpha::hashchain::HashChain ack;
  std::vector<Bytes> emitted;
  core::SignerEngine signer;
  core::VerifierEngine verifier;
};

struct RoundFrames {
  Bytes s1;
  Bytes a1;
  std::vector<Bytes> s2s;
  std::vector<Bytes> a2s;
};

template <typename T>
T decode_as(const Bytes& frame, const char* what) {
  const auto pkt = wire::decode(frame);
  if (!pkt.has_value() || !std::holds_alternative<T>(*pkt)) {
    throw std::runtime_error(std::string("corpus: engine emitted a bad ") +
                             what);
  }
  return std::get<T>(*pkt);
}

std::size_t pick_size(const CorpusSpec& spec, Rng& rng) {
  unsigned total = 0;
  for (const auto& [size, weight] : spec.payload_mix) total += weight;
  auto r = static_cast<unsigned>(rng.below(total));
  for (const auto& [size, weight] : spec.payload_mix) {
    if (r < weight) return size;
    r -= weight;
  }
  return spec.payload_mix.back().first;
}

RoundFrames run_round(AssocGen& g, const CorpusSpec& spec, Rng& rng,
                      std::uint64_t& msg_counter,
                      std::vector<Bytes>& samples) {
  const std::size_t n = spec.config.effective_batch();
  RoundFrames round;
  for (std::size_t m = 0; m < n; ++m) {
    Bytes payload(pick_size(spec, rng));
    fill_bytes(spec.seed, msg_counter++, payload.data(), payload.size());
    if (samples.size() < 64) samples.push_back(payload);
    g.signer.submit(std::move(payload), 0);
  }
  auto out = g.take();
  if (out.size() != 1) throw std::runtime_error("corpus: expected one S1");
  round.s1 = std::move(out[0]);
  g.verifier.on_s1(decode_as<wire::S1Packet>(round.s1, "S1"));
  out = g.take();
  if (out.size() != 1) throw std::runtime_error("corpus: expected one A1");
  round.a1 = std::move(out[0]);
  g.signer.on_a1(decode_as<wire::A1Packet>(round.a1, "A1"), 0);
  round.s2s = g.take();
  if (round.s2s.size() != n) throw std::runtime_error("corpus: S2 count");
  if (spec.config.reliable) {
    for (const Bytes& s2 : round.s2s) {
      g.verifier.on_s2(decode_as<wire::S2Packet>(s2, "S2"));
      for (Bytes& a2 : g.take()) round.a2s.push_back(std::move(a2));
    }
    if (round.a2s.size() != n) throw std::runtime_error("corpus: A2 count");
    for (const Bytes& a2 : round.a2s) {
      g.signer.on_a2(decode_as<wire::A2Packet>(a2, "A2"), 0);
    }
  }
  return round;
}

void append(Corpus& c, std::vector<Frame>& list, const Bytes& bytes,
            std::uint32_t assoc, std::uint32_t seq, Direction dir,
            FrameKind kind) {
  Frame f;
  f.offset = c.arena.size();
  f.len = static_cast<std::uint32_t>(bytes.size());
  f.assoc = assoc;
  f.seq = seq;
  f.dir = dir;
  f.kind = kind;
  c.arena.insert(c.arena.end(), bytes.begin(), bytes.end());
  list.push_back(f);
}

void reseal(std::uint8_t* frame, std::size_t len) {
  const std::size_t body = len - wire::kFrameChecksumSize;
  const std::uint32_t crc = wire::frame_checksum({frame, body});
  for (int i = 0; i < 4; ++i) {
    frame[body + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (24 - 8 * i));
  }
}

}  // namespace

alpha::crypto::ByteView s2_payload(alpha::crypto::ByteView frame) {
  const auto view = wire::parse_s2(frame);
  return view.has_value() ? view->payload : alpha::crypto::ByteView{};
}

Corpus generate_corpus(const CorpusSpec& spec) {
  Corpus c;
  c.config = spec.config;
  const std::size_t assocs = spec.assoc_ids.size();
  const std::size_t n = spec.config.effective_batch();
  Rng rng{mix64(spec.seed ^ 0xc0a95ull)};

  std::vector<std::unique_ptr<AssocGen>> gens;
  gens.reserve(assocs);
  c.anchors.reserve(assocs);
  for (std::size_t a = 0; a < assocs; ++a) {
    const std::uint32_t id = spec.assoc_ids[a];
    gens.push_back(
        std::make_unique<AssocGen>(spec.config, id, mix64(spec.seed + id)));
    const AssocGen& g = *gens.back();
    wire::HandshakePacket hs1;
    hs1.hdr = {id, 0};
    hs1.algo = spec.config.algo;
    hs1.chain_length = static_cast<std::uint32_t>(spec.config.chain_length);
    hs1.sig_anchor = g.sig.anchor();
    hs1.sig_anchor_index = static_cast<std::uint32_t>(g.sig.length());
    hs1.ack_anchor = g.ack.anchor();
    hs1.ack_anchor_index = static_cast<std::uint32_t>(g.ack.length());
    wire::HandshakePacket hs2 = hs1;
    hs2.is_response = true;
    const auto ai = static_cast<std::uint32_t>(a);
    append(c, c.handshakes, hs1.encode(), ai, 0, Direction::kForward,
           FrameKind::kHs1);
    append(c, c.handshakes, hs2.encode(), ai, 0, Direction::kReverse,
           FrameKind::kHs2);
    c.anchors.push_back(AssocAnchors{hs1.sig_anchor, g.sig.length(),
                                     hs1.ack_anchor, g.ack.length()});
  }

  std::uint64_t msg_counter = 0;
  std::vector<RoundFrames> rounds(assocs);
  for (std::size_t r = 0; r < spec.rounds; ++r) {
    for (std::size_t a = 0; a < assocs; ++a) {
      rounds[a] = run_round(*gens[a], spec, rng, msg_counter,
                            c.sample_payloads);
    }
    const auto seq = static_cast<std::uint32_t>(r + 1);
    for (std::size_t a = 0; a < assocs; ++a) {
      append(c, c.schedule, rounds[a].s1, static_cast<std::uint32_t>(a), seq,
             Direction::kForward, FrameKind::kS1);
    }
    for (std::size_t a = 0; a < assocs; ++a) {
      append(c, c.schedule, rounds[a].a1, static_cast<std::uint32_t>(a), seq,
             Direction::kReverse, FrameKind::kA1);
    }
    for (std::size_t m = 0; m < n; ++m) {
      for (std::size_t a = 0; a < assocs; ++a) {
        append(c, c.schedule, rounds[a].s2s[m], static_cast<std::uint32_t>(a),
               seq, Direction::kForward, FrameKind::kS2);
      }
    }
    if (spec.config.reliable) {
      for (std::size_t m = 0; m < n; ++m) {
        for (std::size_t a = 0; a < assocs; ++a) {
          append(c, c.schedule, rounds[a].a2s[m],
                 static_cast<std::uint32_t>(a), seq, Direction::kReverse,
                 FrameKind::kA2);
        }
      }
    }
  }
  c.messages = msg_counter;

  // Forgeries: flip one payload byte and reseal the CRC, so the frame
  // parses and only the authentication check can reject it.
  Rng forge{mix64(spec.seed ^ 0xf0a9edull)};
  for (Frame& f : c.schedule) {
    if (f.kind != FrameKind::kS2) continue;
    if (forge.unit() >= spec.forged_share) continue;
    std::uint8_t* frame = c.arena.data() + f.offset;
    const auto payload = s2_payload({frame, f.len});
    if (payload.empty()) throw std::runtime_error("corpus: S2 without payload");
    const std::size_t at = static_cast<std::size_t>(payload.data() - frame) +
                           forge.below(payload.size());
    frame[at] ^= static_cast<std::uint8_t>(1u << forge.below(8));
    reseal(frame, f.len);
    f.forged = true;
    ++c.forged_frames;
  }

  for (const auto& g : gens) {
    c.signer_hashes += g->signer.stats().hashes;
    c.verifier_hashes += g->verifier.stats().hashes;
  }
  return c;
}

void inject_false_forgery(Corpus& corpus) {
  for (Frame& f : corpus.schedule) {
    if (f.kind == FrameKind::kS2 && !f.forged) {
      f.forged = true;
      ++corpus.forged_frames;
      return;
    }
  }
}

}  // namespace perfbench
