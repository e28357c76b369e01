// Round commitments (core/commitment.hpp): the one statement of the S2/A2
// checks and the Table 2/3 byte counts that the verifier, the signer and
// the relay pipeline share.
#include "core/commitment.hpp"

#include <gtest/gtest.h>

#include "crypto/counter.hpp"
#include "crypto/random.hpp"
#include "merkle/merkle.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using crypto::Digest;
using crypto::HashAlgo;
using crypto::HmacDrbg;

constexpr HashAlgo kAlgos[] = {HashAlgo::kSha1, HashAlgo::kSha256};

struct Outcome {
  bool valid = false;
  std::uint64_t hashes = 0;
};

Outcome check(SignatureCommitment& sig, HashAlgo algo, const Digest& key,
              std::size_t msg_index, const Bytes& payload,
              const merkle::AuthPath* path) {
  const crypto::ScopedHashOps ops;
  const bool valid = sig.verify(algo, crypto::MacKind::kHmac, key, msg_index,
                                payload, path);
  return {valid, ops.delta().hash_finalizations};
}

// ALPHA-M is ALPHA-C+M with one group: an M S1 and a C+M S1 with
// group_size == leaf_count over the same keyed root must accept exactly the
// same S2s, at the same hash cost.
TEST(CommitmentTest, AlphaMIsOneGroupOfCumulativeMerkle) {
  HmacDrbg rng(0xc0ffee);
  for (const HashAlgo algo : kAlgos) {
    SCOPED_TRACE(crypto::to_string(algo));
    for (int trial = 0; trial < 12; ++trial) {
      const std::size_t n = 1 + rng.uniform(17);
      std::vector<Bytes> messages;
      for (std::size_t j = 0; j < n; ++j) {
        messages.push_back(rng.bytes(1 + rng.uniform(300)));
      }
      const merkle::MerkleTree tree(algo, messages);
      const Digest key(rng.bytes(crypto::digest_size(algo)));
      const Digest root = tree.keyed_root(key.view());
      // Another group's tree under the same key: its branches are genuine,
      // but for a different root.
      std::vector<Bytes> other = messages;
      other.front().push_back(0x5a);
      const merkle::MerkleTree other_tree(algo, other);

      wire::S1Packet m;
      m.mode = Mode::kMerkle;
      m.merkle_root = root;
      m.leaf_count = static_cast<std::uint16_t>(n);
      wire::S1Packet cm;
      cm.mode = Mode::kCumulativeMerkle;
      cm.merkle_roots = {root};
      cm.group_size = static_cast<std::uint16_t>(n);
      cm.leaf_count = static_cast<std::uint16_t>(n);
      ASSERT_TRUE(SignatureCommitment::admissible(m));
      ASSERT_TRUE(SignatureCommitment::admissible(cm));
      SignatureCommitment as_m;
      as_m.assign(m);
      SignatureCommitment as_cm;
      as_cm.assign(cm);
      ASSERT_EQ(as_m.message_count(), n);
      ASSERT_EQ(as_cm.message_count(), n);

      const auto both = [&](std::size_t index, const Bytes& payload,
                            const merkle::AuthPath* path) {
        const Outcome a = check(as_m, algo, key, index, payload, path);
        const Outcome b = check(as_cm, algo, key, index, payload, path);
        EXPECT_EQ(a.valid, b.valid) << "n=" << n << " index=" << index;
        EXPECT_EQ(a.hashes, b.hashes) << "n=" << n << " index=" << index;
        return a.valid;
      };

      for (std::size_t j = 0; j < n; ++j) {
        const merkle::AuthPath path = tree.auth_path(j);
        EXPECT_TRUE(both(j, messages[j], &path)) << "genuine " << j;
        EXPECT_FALSE(both(j, messages[j], nullptr)) << "no branch " << j;
        if (n > 1) {
          const std::size_t k = (j + 1) % n;
          EXPECT_FALSE(both(k, messages[j], &path)) << "wrong index " << j;
          EXPECT_FALSE(both(j, messages[k], &path)) << "wrong leaf " << j;
        }
        Bytes tampered = messages[j];
        tampered[rng.uniform(tampered.size())] ^= 0x01;
        EXPECT_FALSE(both(j, tampered, &path)) << "tampered " << j;
        const merkle::AuthPath foreign = other_tree.auth_path(j);
        EXPECT_FALSE(both(j, other[j], &foreign)) << "wrong group " << j;
      }
    }
  }
}

// Table 2 (verifier/relay pre-signatures) and Table 3 (relay ack
// commitments) read straight off the commitments.
TEST(CommitmentTest, ByteCountsFollowTables2And3) {
  HmacDrbg rng(7);
  for (const HashAlgo algo : kAlgos) {
    SCOPED_TRACE(crypto::to_string(algo));
    const std::size_t h = crypto::digest_size(algo);
    const auto digest = [&] { return Digest(rng.bytes(h)); };
    for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                                std::size_t{16}, std::size_t{33}}) {
      SignatureCommitment sig;
      for (const Mode mode : {Mode::kBase, Mode::kCumulative}) {
        wire::S1Packet s1;
        s1.mode = mode;
        for (std::size_t j = 0; j < n; ++j) s1.macs.push_back(digest());
        sig.assign(s1);
        EXPECT_EQ(sig.buffered_bytes(h), n * h);  // n*h
      }

      wire::S1Packet m;
      m.mode = Mode::kMerkle;
      m.merkle_root = digest();
      m.leaf_count = static_cast<std::uint16_t>(n);
      sig.assign(m);
      EXPECT_EQ(sig.buffered_bytes(h), h);  // one root

      const std::size_t group = 4;
      wire::S1Packet cm;
      cm.mode = Mode::kCumulativeMerkle;
      cm.group_size = group;
      cm.leaf_count = static_cast<std::uint16_t>(n);
      const std::size_t roots = (n + group - 1) / group;
      for (std::size_t r = 0; r < roots; ++r) cm.merkle_roots.push_back(digest());
      sig.assign(cm);
      EXPECT_EQ(sig.buffered_bytes(h), roots * h);  // one h per root

      AckCommitment acks;
      EXPECT_EQ(acks.buffered_bytes(h), 0u);  // unreliable: nothing
      wire::A1Packet pre;
      pre.scheme = wire::AckScheme::kPreAck;
      for (std::size_t j = 0; j < n; ++j) {
        pre.pre_acks.push_back(digest());
        pre.pre_nacks.push_back(digest());
      }
      EXPECT_EQ(AckCommitment::message_count(pre), n);
      acks.assign(pre);
      EXPECT_EQ(acks.buffered_bytes(h), 2 * n * h);  // 2n*h

      wire::A1Packet amt;
      amt.scheme = wire::AckScheme::kAmt;
      amt.amt_root = digest();
      amt.amt_msg_count = static_cast<std::uint16_t>(n);
      EXPECT_EQ(AckCommitment::message_count(amt), n);
      acks.assign(amt);
      EXPECT_EQ(acks.buffered_bytes(h), h);  // the AMT root
    }
  }
}

// §3.5: an S1 must pre-sign between 1 and kMaxRoundMessages messages.
TEST(CommitmentTest, RoundSizeBound) {
  wire::S1Packet m;
  m.mode = Mode::kMerkle;
  for (const std::size_t n : {std::size_t{0}, kMaxRoundMessages,
                              kMaxRoundMessages + 1}) {
    m.leaf_count = static_cast<std::uint16_t>(n);
    EXPECT_EQ(SignatureCommitment::admissible(m),
              n != 0 && n <= kMaxRoundMessages) << n;
  }
  wire::S1Packet c;
  c.mode = Mode::kCumulative;
  EXPECT_FALSE(SignatureCommitment::admissible(c));
  c.macs.resize(kMaxRoundMessages + 1);
  EXPECT_FALSE(SignatureCommitment::admissible(c));
  c.macs.resize(kMaxRoundMessages);
  EXPECT_TRUE(SignatureCommitment::admissible(c));
}

}  // namespace
}  // namespace alpha::core
