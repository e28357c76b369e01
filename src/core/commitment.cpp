#include "core/commitment.hpp"

#include "core/preack.hpp"

namespace alpha::core {

bool SignatureCommitment::admissible(const wire::S1Packet& s1) noexcept {
  const bool tree =
      s1.mode == Mode::kMerkle || s1.mode == Mode::kCumulativeMerkle;
  const std::size_t count = tree ? s1.leaf_count : s1.macs.size();
  return count != 0 && count <= kMaxRoundMessages;
}

void SignatureCommitment::assign(const wire::S1Packet& s1) {
  mode_ = s1.mode;
  mac_ctx_.reset();
  if (s1.mode == Mode::kMerkle) {
    // ALPHA-M is ALPHA-C+M with one group spanning the whole round.
    digests_.assign(1, s1.merkle_root);
    count_ = group_size_ = s1.leaf_count;
  } else if (s1.mode == Mode::kCumulativeMerkle) {
    digests_.assign(s1.merkle_roots.begin(), s1.merkle_roots.end());
    count_ = s1.leaf_count;
    group_size_ = s1.group_size;
  } else {
    digests_.assign(s1.macs.begin(), s1.macs.end());
    count_ = digests_.size();
    group_size_ = 0;
  }
}

void SignatureCommitment::commit(Mode mode,
                                 std::vector<crypto::Digest> macs_or_roots,
                                 std::size_t message_count,
                                 std::size_t group_size) {
  mode_ = mode;
  mac_ctx_.reset();
  digests_ = std::move(macs_or_roots);
  count_ = message_count;
  group_size_ = group_size;
}

void SignatureCommitment::write(wire::S1Packet& s1) const {
  s1.mode = mode_;
  if (mode_ == Mode::kMerkle) {
    s1.merkle_root = digests_.front();
    s1.leaf_count = static_cast<std::uint16_t>(count_);
  } else if (mode_ == Mode::kCumulativeMerkle) {
    s1.merkle_roots = digests_;
    s1.group_size = static_cast<std::uint16_t>(group_size_);
    s1.leaf_count = static_cast<std::uint16_t>(count_);
  } else {
    s1.macs = digests_;
  }
}

bool SignatureCommitment::verify(crypto::HashAlgo algo,
                                 crypto::MacKind mac_kind,
                                 const crypto::Digest& key,
                                 std::size_t msg_index,
                                 crypto::ByteView payload,
                                 const merkle::AuthPath* path) {
  if (!uses_trees()) {
    if (!mac_ctx_.has_value()) mac_ctx_.emplace(mac_kind, algo, key.view());
    return mac_ctx_->verify(payload, digests_[msg_index]);
  }
  const std::size_t group = msg_index / group_size_;
  if (path == nullptr || path->leaf_index != msg_index % group_size_ ||
      group >= digests_.size()) {
    return false;
  }
  const crypto::Digest leaf = crypto::hash(algo, payload);
  return merkle::MerkleTree::verify_keyed(algo, key.view(), leaf, *path,
                                          digests_[group]);
}

void AckCommitment::assign(const wire::A1Packet& a1) {
  scheme_ = a1.scheme;
  pre_acks_.assign(a1.pre_acks.begin(), a1.pre_acks.end());
  pre_nacks_.assign(a1.pre_nacks.begin(), a1.pre_nacks.end());
  amt_root_ = a1.amt_root;
  amt_count_ = a1.amt_msg_count;
}

bool AckCommitment::verify(crypto::HashAlgo algo,
                           const wire::A2Packet& a2) const {
  const bool is_ack = a2.kind == wire::AckKind::kAck;
  if (scheme_ == wire::AckScheme::kPreAck) {
    const crypto::Digest& committed =
        is_ack ? pre_acks_[a2.msg_index] : pre_nacks_[a2.msg_index];
    return verify_pre_ack(algo, a2.disclosed_ack_element, is_ack, a2.secret,
                          committed);
  }
  if (scheme_ != wire::AckScheme::kAmt || !a2.path.has_value()) return false;
  merkle::AckMerkleTree::Proof proof;
  proof.is_ack = is_ack;
  proof.msg_index = a2.msg_index;
  proof.secret = a2.secret;
  proof.path = a2.path->to_auth_path();
  return merkle::AckMerkleTree::verify(algo, a2.disclosed_ack_element.view(),
                                       proof, amt_root_, amt_count_);
}

void AckSecrets::commit(const Config& config, bool tree,
                        std::size_t message_count, const crypto::Digest& key,
                        crypto::RandomSource& rng, wire::A1Packet& a1) {
  if (tree) {
    a1.scheme = wire::AckScheme::kAmt;
    amt_.emplace(config.algo, message_count, rng, config.secret_size);
    a1.amt_root = amt_->keyed_root(key.view());
    a1.amt_msg_count = static_cast<std::uint16_t>(message_count);
    return;
  }
  a1.scheme = wire::AckScheme::kPreAck;
  secrets_.reserve(2 * message_count);
  for (std::size_t j = 0; j < message_count; ++j) {
    for (const bool ack : {true, false}) {
      secrets_.push_back(rng.bytes(config.secret_size));
      (ack ? a1.pre_acks : a1.pre_nacks)
          .push_back(make_pre_ack(config.algo, key, ack, secrets_.back()));
    }
  }
}

void AckSecrets::disclose(std::size_t index, bool ack,
                          wire::A2Packet& a2) const {
  if (amt_.has_value()) {
    a2.scheme = wire::AckScheme::kAmt;
    const auto proof = amt_->prove(index, ack);
    a2.secret = proof.secret;
    a2.path = wire::WirePath::from_auth_path(proof.path);
  } else {
    a2.scheme = wire::AckScheme::kPreAck;
    a2.secret = secrets_[2 * index + (ack ? 0 : 1)];
  }
}

std::size_t AckSecrets::buffered_bytes() const noexcept {
  if (amt_.has_value()) return amt_->memory_bytes();
  std::size_t total = 0;
  for (const auto& s : secrets_) total += s.size();
  return total;
}

}  // namespace alpha::core
