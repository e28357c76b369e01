#include "core/relay_pipeline.hpp"

#include <chrono>

#include "core/identity.hpp"
#include "crypto/counter.hpp"
#include "trace/prof.hpp"

namespace alpha::core {

namespace {

// Same helper as the reference engine's: relay-side trace events identify
// the frame by peeking the header.
void emit_relay_event(trace::EventKind kind, crypto::ByteView frame,
                      trace::DropReason reason) {
  if (!trace::enabled()) return;
  std::uint32_t assoc = 0;
  std::uint32_t seq = 0;
  std::uint8_t type = 0;
  if (const auto hdr = wire::peek_header(frame)) {
    seq = hdr->seq;
    assoc = hdr->assoc_id;
  }
  if (const auto t = wire::peek_type(frame)) {
    type = static_cast<std::uint8_t>(*t);
  }
  trace::emit(kind, assoc, seq, type, reason, frame.size());
}

inline void prefetch(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

}  // namespace

void RelayPipeline::Round::reset(std::uint32_t new_seq) noexcept {
  used = true;
  seq = new_seq;
  s1_index = 0;
  sig.clear();
  a1_seen = false;
  a1_ack_index = 0;
  acks.clear();
  disclosed.reset();
  ack_disclosed.reset();
}

RelayPipeline::Round* RelayPipeline::Flow::find_round(
    std::uint32_t seq) noexcept {
  for (Round& r : rounds) {
    if (r.used && r.seq == seq) return &r;
  }
  return nullptr;
}

RelayPipeline::RelayPipeline(Config config, RelayEngine::Options options,
                             Callbacks callbacks, std::size_t batch_capacity)
    : config_(config),
      options_(options),
      callbacks_(std::move(callbacks)),
      batch_capacity_(batch_capacity == 0 ? 1 : batch_capacity) {
  pending_.resize(batch_capacity_);
  forward_items_.reserve(batch_capacity_);
}

// ---------------------------------------------------------------- demux --

std::uint32_t RelayPipeline::find_slot(
    std::uint32_t assoc_id) const noexcept {
  if (index_.empty()) return kNoSlot;
  const std::size_t mask = index_.size() - 1;
  // Fibonacci hash: multiplicative scramble so dense assoc-id ranges spread
  // across the table (same constant as spsc_ring's shard_of).
  std::size_t pos = (assoc_id * 0x9e3779b9u) & mask;
  while (true) {
    const std::uint32_t e = index_[pos];
    if (e == 0) return kNoSlot;
    if (slots_[e - 1].assoc_id == assoc_id) return e - 1;
    pos = (pos + 1) & mask;
  }
}

void RelayPipeline::grow_index() {
  const std::size_t size = index_.empty() ? 16 : index_.size() * 2;
  index_.assign(size, 0);
  const std::size_t mask = size - 1;
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    std::size_t pos = (slots_[s].assoc_id * 0x9e3779b9u) & mask;
    while (index_[pos] != 0) pos = (pos + 1) & mask;
    index_[pos] = s + 1;
  }
}

std::uint32_t RelayPipeline::find_or_create_slot(std::uint32_t assoc_id) {
  if (const std::uint32_t s = find_slot(assoc_id); s != kNoSlot) return s;
  // Keep load under ~70% so probe runs stay short.
  if ((slots_.size() + 1) * 10 >= index_.size() * 7) grow_index();
  slots_.emplace_back();
  AssocSlot& slot = slots_.back();
  slot.assoc_id = assoc_id;
  const std::uint32_t s = static_cast<std::uint32_t>(slots_.size() - 1);
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = (assoc_id * 0x9e3779b9u) & mask;
  while (index_[pos] != 0) pos = (pos + 1) & mask;
  index_[pos] = s + 1;
  return s;
}

// ------------------------------------------------------------ batch I/O --

void RelayPipeline::enqueue(Direction dir, crypto::ByteView frame) {
  PendingFrame& p = pending_[pending_count_];
  p.dir = dir;
  p.buf.assign(frame.begin(), frame.end());
  ++pending_count_;
  if (pending_count_ == batch_capacity_) flush();
}

void RelayPipeline::flush() {
  if (pending_count_ == 0) return;
  trace::ScopedStage prof_stage(trace::Stage::kRelayVerify);
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = pending_count_;

  // Pass 1 -- demux: resolve each frame's association to its slot and
  // prefetch the slot line so pass 2 never waits on a cold association.
  for (std::size_t i = 0; i < n; ++i) {
    PendingFrame& p = pending_[i];
    const auto assoc =
        wire::peek_assoc_id({p.buf.data(), p.buf.size()});
    p.slot = assoc.has_value() ? find_slot(*assoc) : kNoSlot;
    if (p.slot != kNoSlot) prefetch(&slots_[p.slot]);
  }

  // Pass 2 -- run to completion in arrival order. A kNoSlot hint is only a
  // hint: a handshake earlier in this same batch may have created the
  // association, so the slow path re-probes. A resolved hint is always
  // valid -- slots are never removed and never move.
  forward_items_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n && pending_[i + 1].slot != kNoSlot) {
      prefetch(&slots_[pending_[i + 1].slot]);
    }
    process(pending_[i]);
  }
  pending_count_ = 0;

  if (!forward_items_.empty() && callbacks_.forward_batch) {
    callbacks_.forward_batch(forward_items_.data(), forward_items_.size());
  }

  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  stats_.verify_batch_ns.record(static_cast<std::uint64_t>(ns));
  stats_.verify_batch_frames += n;
}

// ------------------------------------------------------------- verdicts --

RelayDecision RelayPipeline::forward_to_batch(Direction dir,
                                              crypto::ByteView frame) {
  ++stats_.forwarded;
  emit_relay_event(trace::EventKind::kRelayForwarded, frame,
                   trace::DropReason::kNone);
  forward_items_.push_back(ForwardItem{dir, frame});
  return RelayDecision::kForwarded;
}

RelayDecision RelayPipeline::drop(RelayDecision decision,
                                  crypto::ByteView frame,
                                  trace::DropReason reason) {
  if (decision == RelayDecision::kDroppedUnsolicited) {
    ++stats_.dropped_unsolicited;
  } else {
    ++stats_.dropped_invalid;
  }
  ++stats_.dropped_by_reason[static_cast<std::size_t>(reason)];
  emit_relay_event(trace::EventKind::kPacketDropped, frame, reason);
  return decision;
}

RelayDecision RelayPipeline::malformed(crypto::ByteView frame) {
  ++stats_.dropped_invalid;
  ++stats_.dropped_by_reason[static_cast<std::size_t>(
      trace::DropReason::kDecodeError)];
  emit_relay_event(trace::EventKind::kPacketDropped, frame,
                   trace::DropReason::kDecodeError);
  return RelayDecision::kDroppedMalformed;
}

void RelayPipeline::process(PendingFrame& p) {
  const crypto::ByteView frame{p.buf.data(), p.buf.size()};
  RelayDecision decision;
  if (wire::peek_type(frame) == wire::PacketType::kS2) {
    // Steady-state path: zero-copy parse, no heap.
    const auto s2 = wire::parse_s2(frame);
    decision = s2.has_value() ? process_s2(p.dir, *s2, frame, p.slot)
                              : malformed(frame);
  } else {
    // Control path (handshakes, S1/A1/A2): the full decoder is fine here,
    // these are a per-round constant, not a per-message cost.
    const auto packet = wire::decode(frame);
    if (!packet.has_value()) {
      decision = malformed(frame);
    } else {
      decision = std::visit(
          [&](const auto& pkt) -> RelayDecision {
            using T = std::decay_t<decltype(pkt)>;
            if constexpr (std::is_same_v<T, wire::HandshakePacket>) {
              return process_handshake(p.dir, pkt, frame);
            } else if constexpr (std::is_same_v<T, wire::S1Packet>) {
              return process_s1(p.dir, pkt, frame, p.slot);
            } else if constexpr (std::is_same_v<T, wire::A1Packet>) {
              return process_a1(p.dir, pkt, frame, p.slot);
            } else if constexpr (std::is_same_v<T, wire::S2Packet>) {
              // Unreachable (peek_type routed kS2 above), but keep the
              // visitor total.
              const auto view = wire::parse_s2(frame);
              return view.has_value() ? process_s2(p.dir, *view, frame, p.slot)
                                      : malformed(frame);
            } else {
              return process_a2(p.dir, pkt, frame, p.slot);
            }
          },
          *packet);
    }
  }
  if (callbacks_.on_decision) callbacks_.on_decision(decision, p.dir, frame);
}

RelayPipeline::Round* RelayPipeline::insert_round(Flow& flow,
                                                  std::uint32_t seq) {
  Round* free_slot = nullptr;
  Round* min_round = nullptr;
  for (Round& r : flow.rounds) {
    if (!r.used) {
      if (free_slot == nullptr) free_slot = &r;
      continue;
    }
    if (min_round == nullptr || r.seq < min_round->seq) min_round = &r;
  }
  if (free_slot != nullptr) {
    free_slot->reset(seq);
    return free_slot;
  }
  // Full flow: the engine emplaces then erases the lowest seq, so a new
  // round below every retained one evicts itself -- vetted and forwarded,
  // but not remembered.
  if (seq < min_round->seq) return nullptr;
  min_round->reset(seq);
  return min_round;
}

// ------------------------------------------------- decision procedure ----
// Each process_* mirrors the corresponding RelayEngine::handle_* check for
// check; any divergence is a bug the equivalence suite exists to catch.

RelayDecision RelayPipeline::process_handshake(Direction dir,
                                               const wire::HandshakePacket& hs,
                                               crypto::ByteView frame) {
  if (options_.verify_handshake_signatures &&
      hs.sig_alg != wire::SigAlg::kNone) {
    const auto peer = PeerIdentity::decode(hs.sig_alg, hs.public_key);
    if (!peer.has_value() ||
        !peer->verify(hs.algo, hs.signed_payload(), hs.signature)) {
      return drop(RelayDecision::kDroppedInvalid, frame,
                  trace::DropReason::kBadMac);
    }
  }

  AssocSlot& assoc = slots_[find_or_create_slot(hs.hdr.assoc_id)];
  assoc.algo = hs.algo;
  assoc.handshake_seen = true;

  Flow& own_flow = assoc.flows[static_cast<int>(dir)];
  Flow& rev_flow = assoc.flows[static_cast<int>(opposite(dir))];
  if (own_flow.sig.has_value() &&
      own_flow.sig_anchor.ct_equals(hs.sig_anchor)) {
    return forward_to_batch(dir, frame);
  }
  own_flow.sig.emplace(hs.algo, hashchain::ChainTagging::kRoleBound,
                       hs.sig_anchor, hs.sig_anchor_index, config_.max_gap);
  own_flow.sig_anchor = hs.sig_anchor;
  rev_flow.ack.emplace(hs.algo, hashchain::ChainTagging::kRoleBound,
                       hs.ack_anchor, hs.ack_anchor_index, config_.max_gap);
  for (Round& r : own_flow.rounds) r.used = false;
  return forward_to_batch(dir, frame);
}

RelayDecision RelayPipeline::process_s1(Direction dir,
                                        const wire::S1Packet& s1,
                                        crypto::ByteView frame,
                                        std::uint32_t slot_hint) {
  const std::uint32_t slot =
      slot_hint != kNoSlot ? slot_hint : find_slot(s1.hdr.assoc_id);
  if (slot == kNoSlot || !slots_[slot].flows[static_cast<int>(dir)].sig) {
    return options_.require_handshake
               ? drop(RelayDecision::kDroppedUnsolicited, frame,
                      trace::DropReason::kUnsolicited)
               : forward_to_batch(dir, frame);
  }
  Flow& flow = slots_[slot].flows[static_cast<int>(dir)];

  if (!SignatureCommitment::admissible(s1)) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kDecodeError);
  }

  if (flow.find_round(s1.hdr.seq) != nullptr) {
    return forward_to_batch(dir, frame);  // vetted retransmission
  }

  if (!hashchain::is_s1_index(s1.chain_index)) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kStaleChainIndex);
  }
  {
    const crypto::ScopedHashOps ops;
    const bool ok = flow.sig->accept(s1.chain_element, s1.chain_index);
    stats_.hashes.chain_verify += ops.delta().hash_finalizations;
    if (!ok) {
      return drop(RelayDecision::kDroppedInvalid, frame,
                  trace::DropReason::kStaleChainIndex);
    }
  }

  if (Round* round = insert_round(flow, s1.hdr.seq)) {
    round->s1_index = s1.chain_index;
    round->sig.assign(s1);
  }
  return forward_to_batch(dir, frame);
}

RelayDecision RelayPipeline::process_a1(Direction dir,
                                        const wire::A1Packet& a1,
                                        crypto::ByteView frame,
                                        std::uint32_t slot_hint) {
  const Direction flow_dir = opposite(dir);
  const std::uint32_t slot =
      slot_hint != kNoSlot ? slot_hint : find_slot(a1.hdr.assoc_id);
  if (slot == kNoSlot ||
      !slots_[slot].flows[static_cast<int>(flow_dir)].ack) {
    return options_.require_handshake
               ? drop(RelayDecision::kDroppedUnsolicited, frame,
                      trace::DropReason::kUnsolicited)
               : forward_to_batch(dir, frame);
  }
  Flow& flow = slots_[slot].flows[static_cast<int>(flow_dir)];

  Round* round = flow.find_round(a1.hdr.seq);
  if (round == nullptr) {
    return drop(RelayDecision::kDroppedUnsolicited, frame,
                trace::DropReason::kUnsolicited);
  }

  if (!hashchain::is_s1_index(a1.ack_chain_index)) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kStaleChainIndex);
  }
  {
    const crypto::ScopedHashOps ops;
    const bool ok =
        flow.ack->accept_or_derive(a1.ack_element, a1.ack_chain_index);
    stats_.hashes.chain_verify += ops.delta().hash_finalizations;
    if (!ok) {
      return drop(RelayDecision::kDroppedInvalid, frame,
                  trace::DropReason::kStaleChainIndex);
    }
  }

  if (a1.scheme == wire::AckScheme::kPreAck &&
      AckCommitment::message_count(a1) != round->sig.message_count()) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kDecodeError);
  }

  round->a1_seen = true;
  round->a1_ack_index = a1.ack_chain_index;
  round->acks.assign(a1);
  return forward_to_batch(dir, frame);
}

RelayDecision RelayPipeline::process_s2(Direction dir, const wire::S2View& s2,
                                        crypto::ByteView frame,
                                        std::uint32_t slot_hint) {
  const std::uint32_t slot =
      slot_hint != kNoSlot ? slot_hint : find_slot(s2.hdr.assoc_id);
  if (slot == kNoSlot || !slots_[slot].flows[static_cast<int>(dir)].sig) {
    return options_.require_handshake
               ? drop(RelayDecision::kDroppedUnsolicited, frame,
                      trace::DropReason::kUnsolicited)
               : forward_to_batch(dir, frame);
  }
  AssocSlot& assoc = slots_[slot];
  Flow& flow = assoc.flows[static_cast<int>(dir)];

  Round* round = flow.find_round(s2.hdr.seq);
  if (round == nullptr) {
    return drop(RelayDecision::kDroppedUnsolicited, frame,
                trace::DropReason::kUnsolicited);
  }
  if (!round->a1_seen) {
    return drop(RelayDecision::kDroppedUnsolicited, frame,
                trace::DropReason::kUnsolicited);
  }

  if (s2.mode != round->sig.mode() ||
      s2.msg_index >= round->sig.message_count() ||
      s2.chain_index + 1 != round->s1_index) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kStaleChainIndex);
  }

  // Authenticate the disclosed MAC key: the first S2 of the round pays the
  // chain walk, every later one is a constant-time compare on the memo.
  if (round->disclosed.has_value()) {
    if (!round->disclosed->ct_equals(s2.disclosed_element)) {
      return drop(RelayDecision::kDroppedInvalid, frame,
                  trace::DropReason::kBadMac);
    }
  } else {
    const crypto::ScopedHashOps ops;
    const bool ok =
        flow.sig->accept_or_derive(s2.disclosed_element, s2.chain_index);
    stats_.hashes.chain_verify += ops.delta().hash_finalizations;
    if (!ok) {
      return drop(RelayDecision::kDroppedInvalid, frame,
                  trace::DropReason::kStaleChainIndex);
    }
    round->disclosed = s2.disclosed_element;
  }

  bool valid = false;
  {
    const crypto::ScopedHashOps ops;
    if (s2.has_path) s2.path_into(path_scratch_);
    valid = round->sig.verify(assoc.algo, config_.mac_kind,
                              s2.disclosed_element, s2.msg_index, s2.payload,
                              s2.has_path ? &path_scratch_ : nullptr);
    stats_.hashes.signature += ops.delta().hash_finalizations;
  }
  if (!valid) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kBadMac);
  }

  ++stats_.messages_extracted;
  if (callbacks_.on_extracted) {
    callbacks_.on_extracted(s2.hdr.assoc_id, s2.hdr.seq, s2.msg_index,
                            s2.payload);
  }
  return forward_to_batch(dir, frame);
}

RelayDecision RelayPipeline::process_a2(Direction dir,
                                        const wire::A2Packet& a2,
                                        crypto::ByteView frame,
                                        std::uint32_t slot_hint) {
  const Direction flow_dir = opposite(dir);
  const std::uint32_t slot =
      slot_hint != kNoSlot ? slot_hint : find_slot(a2.hdr.assoc_id);
  if (slot == kNoSlot ||
      !slots_[slot].flows[static_cast<int>(flow_dir)].ack) {
    return options_.require_handshake
               ? drop(RelayDecision::kDroppedUnsolicited, frame,
                      trace::DropReason::kUnsolicited)
               : forward_to_batch(dir, frame);
  }
  AssocSlot& assoc = slots_[slot];
  Flow& flow = assoc.flows[static_cast<int>(flow_dir)];

  Round* round = flow.find_round(a2.hdr.seq);
  if (round == nullptr || !round->a1_seen) {
    return drop(RelayDecision::kDroppedUnsolicited, frame,
                trace::DropReason::kUnsolicited);
  }

  if (a2.scheme != round->acks.scheme() ||
      a2.ack_chain_index + 1 != round->a1_ack_index ||
      a2.msg_index >= round->sig.message_count()) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kStaleChainIndex);
  }

  if (round->ack_disclosed.has_value()) {
    if (!round->ack_disclosed->ct_equals(a2.disclosed_ack_element)) {
      return drop(RelayDecision::kDroppedInvalid, frame,
                  trace::DropReason::kBadMac);
    }
  } else {
    const crypto::ScopedHashOps ops;
    const bool ok = flow.ack->accept_or_derive(a2.disclosed_ack_element,
                                               a2.ack_chain_index);
    stats_.hashes.chain_verify += ops.delta().hash_finalizations;
    if (!ok) {
      return drop(RelayDecision::kDroppedInvalid, frame,
                  trace::DropReason::kStaleChainIndex);
    }
    round->ack_disclosed = a2.disclosed_ack_element;
  }

  bool valid = false;
  {
    const crypto::ScopedHashOps ops;
    valid = round->acks.verify(assoc.algo, a2);
    stats_.hashes.ack += ops.delta().hash_finalizations;
  }
  if (!valid) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kBadMac);
  }

  ++stats_.acks_verified;
  return forward_to_batch(dir, frame);
}

// ------------------------------------------------------------- memory ----
// Both counts walk the used rounds; the per-mode rules are the commitment
// module's, and the equivalence suite holds them to RelayEngine's.

std::size_t RelayPipeline::buffered_bytes() const noexcept {
  std::size_t total = 0;
  for (const AssocSlot& assoc : slots_) {
    const std::size_t h = crypto::digest_size(assoc.algo);
    for (const Flow& flow : assoc.flows) {
      for (const Round& round : flow.rounds) {
        if (round.used) total += round.sig.buffered_bytes(h);
      }
    }
  }
  return total;
}

std::size_t RelayPipeline::ack_buffered_bytes() const noexcept {
  std::size_t total = 0;
  for (const AssocSlot& assoc : slots_) {
    const std::size_t h = crypto::digest_size(assoc.algo);
    for (const Flow& flow : assoc.flows) {
      for (const Round& round : flow.rounds) {
        if (round.used) total += round.acks.buffered_bytes(h);
      }
    }
  }
  return total;
}

}  // namespace alpha::core
