#include "core/signer.hpp"

#include <chrono>
#include <stdexcept>

#include "crypto/counter.hpp"
#include "trace/trace.hpp"

namespace alpha::core {

SignerEngine::SignerEngine(Config config, std::uint32_t assoc_id,
                           hashchain::HashChain sig_chain, Digest ack_anchor,
                           std::size_t ack_anchor_index, Callbacks callbacks)
    : config_(config),
      assoc_id_(assoc_id),
      sig_chain_(std::move(sig_chain)),
      walker_(sig_chain_),
      ack_verifier_(config.algo, hashchain::ChainTagging::kRoleBound,
                    std::move(ack_anchor), ack_anchor_index, config.max_gap),
      callbacks_(std::move(callbacks)) {
  if (sig_chain_.algo() != config_.algo) {
    throw std::invalid_argument("SignerEngine: chain algorithm mismatch");
  }
  if (sig_chain_.tagging() != hashchain::ChainTagging::kRoleBound) {
    throw std::invalid_argument("SignerEngine: chain must be role-bound");
  }
}

bool SignerEngine::can_send() const noexcept { return walker_.remaining() >= 2; }

std::vector<std::pair<std::uint64_t, Bytes>> SignerEngine::drain_backlog() {
  std::vector<std::pair<std::uint64_t, Bytes>> out;
  // Unsettled messages of an in-flight round come first (their S2s may
  // never complete once this engine is discarded); re-signing them under
  // fresh chains gives at-least-once delivery.
  if (round_.has_value()) {
    for (std::size_t k = 0; k < round_->messages.size(); ++k) {
      if (!round_->settled[k]) {
        out.emplace_back(round_->messages[k].cookie,
                         std::move(round_->messages[k].payload));
      }
    }
    round_.reset();
    ++stats_.rounds_failed;
  }
  out.reserve(out.size() + queue_.size());
  for (auto& q : queue_) {
    out.emplace_back(q.cookie, std::move(q.payload));
  }
  queue_.clear();
  return out;
}

std::uint64_t SignerEngine::submit(Bytes message, std::uint64_t now_us,
                                   std::optional<std::uint64_t> cookie,
                                   bool resubmission) {
  if (message.size() > 0xffff) {
    throw std::length_error("SignerEngine::submit: message too large");
  }
  // NOT value_or(next_cookie_++): value_or evaluates its argument eagerly,
  // so that would burn one counter value on every explicit-cookie
  // resubmission and leave holes in the cookie sequence after each rekey.
  const std::uint64_t id = cookie.has_value() ? *cookie : next_cookie_++;
  if (!resubmission) ++stats_.messages_submitted;
  queue_.push_back(QueuedMessage{id, std::move(message), now_us});
  maybe_start_round(now_us);
  return id;
}

void SignerEngine::maybe_start_round(std::uint64_t now_us, bool flush) {
  if (paused_ || round_.has_value() || queue_.empty()) return;
  // The MTU hint caps the batch so S1/A1 control packets stay deliverable.
  const std::size_t batch_limit =
      max_batch_for_mtu(config_, config_.mtu_hint);
  // Batched modes aggregate submissions until a full batch is available;
  // on_tick() flushes partial batches so traffic never stalls.
  if (!flush && queue_.size() < batch_limit) return;
  if (!can_send()) {
    // Chain exhausted: fail queued messages rather than stall silently.
    // One aborted round regardless of how many messages it would have
    // carried -- counting per message inflated rounds_failed.
    ++stats_.rounds_failed;
    trace::emit(trace::EventKind::kRoundFailed, assoc_id_, next_seq_, 0,
                trace::DropReason::kChainExhausted, queue_.size());
    while (!queue_.empty()) {
      if (callbacks_.on_delivery) {
        callbacks_.on_delivery(queue_.front().cookie, DeliveryStatus::kFailed);
      }
      queue_.pop_front();
    }
    return;
  }

  Round round;
  round.seq = next_seq_++;
  const std::size_t batch = std::min(batch_limit, queue_.size());
  for (std::size_t k = 0; k < batch; ++k) {
    round.messages.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  round.settled.assign(round.messages.size(), 0);
  round.nack_retries.assign(round.messages.size(), 0);

  // Two chain elements per round: h_i (odd, authenticates the S1) and
  // h_{i-1} (even, the MAC key disclosed in S2 packets).
  round.s1_index = walker_.next_index();
  round.h_i = walker_.peek(0);
  round.h_im1 = walker_.peek(1);
  walker_.take(2);

  // Span decomposition (kRoundStart): queueing delay is how long the oldest
  // message of the batch sat in the queue; crypto time is the wall time of
  // the signature block below, measured only when tracing is on so the
  // untraced hot path never reads a real clock.
  const std::uint64_t queue_wait_us =
      now_us >= round.messages.front().submit_us
          ? now_us - round.messages.front().submit_us
          : 0;
  const bool traced = trace::enabled();
  std::chrono::steady_clock::time_point crypto_begin;
  if (traced) crypto_begin = std::chrono::steady_clock::now();

  {
    const crypto::ScopedHashOps ops;
    std::vector<Digest> digests;  // the MACs, or one keyed root per tree
    std::size_t group = 0;
    if (config_.uses_trees()) {
      group = config_.group_size(round.messages.size());
      for (std::size_t start = 0; start < round.messages.size();
           start += group) {
        std::vector<Bytes> payloads;
        const std::size_t end =
            std::min(start + group, round.messages.size());
        payloads.reserve(end - start);
        for (std::size_t k = start; k < end; ++k) {
          payloads.push_back(round.messages[k].payload);
        }
        round.trees.emplace_back(config_.algo, payloads);
        digests.push_back(round.trees.back().keyed_root(round.h_im1.view()));
      }
    } else {
      // One key schedule for the whole batch: every MAC of the round is
      // keyed by the same undisclosed element h_{i-1}.
      const crypto::MacContext mac_ctx(config_.mac_kind, config_.algo,
                                       round.h_im1.view());
      digests.reserve(round.messages.size());
      for (const auto& m : round.messages) {
        digests.push_back(mac_ctx.mac(m.payload));
      }
    }
    round.sig.commit(config_.mode, std::move(digests), round.messages.size(),
                     group);
    stats_.hashes.signature += ops.delta().hash_finalizations;
  }

  if (traced) {
    const auto crypto_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - crypto_begin)
                               .count();
    trace::emit(trace::EventKind::kRoundStart, assoc_id_, round.seq, 0,
                trace::DropReason::kNone,
                trace::pack_round_detail(
                    queue_wait_us, static_cast<std::uint64_t>(crypto_ns)));
  }

  round_ = std::move(round);
  ++stats_.rounds_started;
  send_s1(now_us);
}

void SignerEngine::send_s1(std::uint64_t now_us) {
  Round& round = *round_;
  wire::S1Packet s1;
  s1.hdr = {assoc_id_, round.seq};
  s1.chain_index = static_cast<std::uint32_t>(round.s1_index);
  s1.chain_element = round.h_i;
  round.sig.write(s1);
  round.s1_frame = s1.encode();
  round.last_send_us = now_us;
  ++stats_.s1_sent;
  trace::emit(trace::EventKind::kPacketSent, assoc_id_, round.seq,
              static_cast<std::uint8_t>(wire::PacketType::kS1),
              trace::DropReason::kNone, round.messages.size());
  callbacks_.send(round.s1_frame);
}

Bytes SignerEngine::make_s2(const Round& round, std::size_t index) const {
  wire::S2Packet s2;
  s2.hdr = {assoc_id_, round.seq};
  s2.mode = config_.mode;
  s2.chain_index = static_cast<std::uint32_t>(round.s1_index - 1);
  s2.disclosed_element = round.h_im1;
  s2.msg_index = static_cast<std::uint16_t>(index);
  if (round.sig.uses_trees()) {
    const std::size_t group = round.sig.group_size();
    s2.path = wire::WirePath::from_auth_path(
        round.trees[index / group].auth_path(index % group));
  }
  s2.payload = round.messages[index].payload;
  return s2.encode();
}

void SignerEngine::send_s2_batch(std::uint64_t now_us) {
  Round& round = *round_;
  for (std::size_t k = 0; k < round.messages.size(); ++k) {
    if (round.settled[k]) continue;
    trace::emit(trace::EventKind::kPacketSent, assoc_id_, round.seq,
                static_cast<std::uint8_t>(wire::PacketType::kS2),
                trace::DropReason::kNone, k);
    callbacks_.send(make_s2(round, k));
    ++stats_.s2_sent;
  }
  round.last_send_us = now_us;
}

void SignerEngine::on_a1(const wire::A1Packet& a1, std::uint64_t now_us) {
  const auto drop_a1 = [&](trace::DropReason reason) {
    trace::emit(trace::EventKind::kPacketDropped, assoc_id_, a1.hdr.seq,
                static_cast<std::uint8_t>(wire::PacketType::kA1), reason);
  };
  if (!round_.has_value() || a1.hdr.assoc_id != assoc_id_ ||
      a1.hdr.seq != round_->seq ||
      round_->state != Round::State::kAwaitA1) {
    // Late or duplicate A1: the paper mandates discarding pre-(n)acks in
    // further A1 packets once an S2 went out (§3.2.2).
    drop_a1(trace::DropReason::kStaleRound);
    return;
  }
  Round& round = *round_;

  // The A1 is authenticated by an odd-index element of the verifier's
  // acknowledgment chain.
  if (!hashchain::is_s1_index(a1.ack_chain_index)) {
    ++stats_.invalid_packets;
    drop_a1(trace::DropReason::kStaleChainIndex);
    return;
  }
  {
    const crypto::ScopedHashOps ops;
    const bool ok = ack_verifier_.accept(a1.ack_element, a1.ack_chain_index);
    stats_.hashes.chain_verify += ops.delta().hash_finalizations;
    if (!ok) {
      ++stats_.invalid_packets;
      drop_a1(trace::DropReason::kStaleChainIndex);
      return;
    }
  }

  if (config_.reliable) {
    const auto expected = config_.uses_trees() ? wire::AckScheme::kAmt
                                               : wire::AckScheme::kPreAck;
    if (a1.scheme != expected ||
        AckCommitment::message_count(a1) != round.messages.size()) {
      ++stats_.invalid_packets;
      drop_a1(trace::DropReason::kBadMac);
      return;
    }
    round.acks.assign(a1);
  }
  round.a1_ack_index = a1.ack_chain_index;
  round.retries = 0;
  trace::emit(trace::EventKind::kPacketAccepted, assoc_id_, a1.hdr.seq,
              static_cast<std::uint8_t>(wire::PacketType::kA1));

  send_s2_batch(now_us);
  if (config_.reliable) {
    round.state = Round::State::kAwaitA2;
  } else {
    for (std::size_t k = 0; k < round.messages.size(); ++k) {
      settle(k, DeliveryStatus::kSent);
    }
    finish_round(true);
    maybe_start_round(now_us);
  }
}

void SignerEngine::on_a2(const wire::A2Packet& a2, std::uint64_t now_us) {
  const auto drop_a2 = [&](trace::DropReason reason) {
    trace::emit(trace::EventKind::kPacketDropped, assoc_id_, a2.hdr.seq,
                static_cast<std::uint8_t>(wire::PacketType::kA2), reason,
                a2.msg_index);
  };
  if (!round_.has_value() || a2.hdr.assoc_id != assoc_id_ ||
      a2.hdr.seq != round_->seq ||
      round_->state != Round::State::kAwaitA2) {
    drop_a2(trace::DropReason::kStaleRound);
    return;
  }
  Round& round = *round_;

  // A2 discloses the even-index ack element right below the A1's element.
  if (a2.ack_chain_index + 1 != round.a1_ack_index) {
    ++stats_.invalid_packets;
    drop_a2(trace::DropReason::kStaleChainIndex);
    return;
  }
  {
    const crypto::ScopedHashOps ops;
    const bool ok = ack_verifier_.accept_or_derive(a2.disclosed_ack_element,
                                                   a2.ack_chain_index);
    stats_.hashes.chain_verify += ops.delta().hash_finalizations;
    if (!ok) {
      ++stats_.invalid_packets;
      drop_a2(trace::DropReason::kStaleChainIndex);
      return;
    }
  }

  if (a2.scheme != round.acks.scheme()) {
    ++stats_.invalid_packets;
    drop_a2(trace::DropReason::kBadMac);
    return;
  }

  const std::size_t index = a2.msg_index;
  if (index >= round.messages.size() || round.settled[index]) {
    drop_a2(trace::DropReason::kDuplicateS2);
    return;
  }

  bool valid = false;
  const bool is_ack = a2.kind == wire::AckKind::kAck;
  {
    const crypto::ScopedHashOps ops;
    valid = round.acks.verify(config_.algo, a2);
    stats_.hashes.ack += ops.delta().hash_finalizations;
  }
  if (!valid) {
    ++stats_.invalid_packets;
    drop_a2(trace::DropReason::kBadMac);
    return;
  }

  trace::emit(trace::EventKind::kPacketAccepted, assoc_id_, a2.hdr.seq,
              static_cast<std::uint8_t>(wire::PacketType::kA2),
              trace::DropReason::kNone, is_ack ? 1 : 0);
  if (is_ack) {
    ++stats_.acks_received;
    settle(index, DeliveryStatus::kAcked);
  } else {
    ++stats_.nacks_received;
    // Selective repeat (§3.3.3): a nack means the verifier received a
    // corrupted S2 for this message; resend it instead of giving up.
    if (config_.retransmit_on_nack &&
        round.nack_retries[index] < config_.max_retries) {
      ++round.nack_retries[index];
      trace::emit(trace::EventKind::kRetransmit, assoc_id_, round.seq,
                  static_cast<std::uint8_t>(wire::PacketType::kS2),
                  trace::DropReason::kNone, round.nack_retries[index]);
      callbacks_.send(make_s2(round, index));
      ++stats_.s2_retransmits;
    } else {
      settle(index, DeliveryStatus::kNacked);
    }
  }

  if (round.settled_count == round.messages.size()) {
    finish_round(true);
    maybe_start_round(now_us);
  }
}

std::optional<std::uint64_t> SignerEngine::next_deadline_us() const noexcept {
  if (round_.has_value()) {
    return round_->last_send_us + retransmit_delay(config_, round_->retries,
                                                   retransmit_salt());
  }
  if (!paused_ && !queue_.empty()) return 0;  // flush a partial batch asap
  return std::nullopt;
}

std::uint64_t SignerEngine::retransmit_salt() const noexcept {
  return (static_cast<std::uint64_t>(assoc_id_) << 32) |
         (round_.has_value() ? round_->seq : 0);
}

void SignerEngine::on_tick(std::uint64_t now_us) {
  if (!round_.has_value()) {
    maybe_start_round(now_us, /*flush=*/true);
    return;
  }
  Round& round = *round_;
  if (now_us - round.last_send_us <
      retransmit_delay(config_, round.retries, retransmit_salt())) {
    return;
  }

  if (round.retries >= config_.max_retries) {
    trace::emit(trace::EventKind::kRoundFailed, assoc_id_, round.seq, 0,
                trace::DropReason::kBudgetExhausted,
                round.messages.size() - round.settled_count);
    for (std::size_t k = 0; k < round.messages.size(); ++k) {
      if (!round.settled[k]) settle(k, DeliveryStatus::kFailed);
    }
    finish_round(false);
    maybe_start_round(now_us);
    return;
  }
  ++round.retries;
  if (round.state == Round::State::kAwaitA1) {
    trace::emit(trace::EventKind::kRetransmit, assoc_id_, round.seq,
                static_cast<std::uint8_t>(wire::PacketType::kS1),
                trace::DropReason::kNone, round.retries);
    callbacks_.send(round.s1_frame);
    ++stats_.s1_retransmits;
    round.last_send_us = now_us;
  } else {
    for (std::size_t k = 0; k < round.messages.size(); ++k) {
      if (round.settled[k]) continue;
      trace::emit(trace::EventKind::kRetransmit, assoc_id_, round.seq,
                  static_cast<std::uint8_t>(wire::PacketType::kS2),
                  trace::DropReason::kNone, round.retries);
      callbacks_.send(make_s2(round, k));
      ++stats_.s2_retransmits;
    }
    round.last_send_us = now_us;
  }
}

void SignerEngine::settle(std::size_t index, DeliveryStatus status) {
  Round& round = *round_;
  if (round.settled[index]) return;
  round.settled[index] = 1;
  ++round.settled_count;
  if (callbacks_.on_delivery) {
    callbacks_.on_delivery(round.messages[index].cookie, status);
  }
}

void SignerEngine::finish_round(bool success) {
  if (success) {
    ++stats_.rounds_completed;
  } else {
    ++stats_.rounds_failed;
  }
  round_.reset();
}

std::size_t SignerEngine::buffered_bytes() const noexcept {
  if (!round_.has_value()) return 0;
  const Round& round = *round_;
  const std::size_t h = config_.digest_size();
  std::size_t total = 0;
  for (const auto& m : round.messages) total += m.payload.size();
  // The signer keeps the trees to emit {Bc} per S2: (2w - 1) nodes each.
  for (const auto& tree : round.trees) total += (2 * tree.width() - 1) * h;
  if (round.trees.empty()) total += round.sig.buffered_bytes(h);  // MACs
  return total;
}

}  // namespace alpha::core
