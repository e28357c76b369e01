// Hot-path refactor safety net: the one-shot fast paths, the hardware
// compression backends and the cached-midstate MACs must be bit-identical
// to the streaming/scalar/from-scratch constructions and must not change
// what HashOpCounter reports.
#include <gtest/gtest.h>

#include <string>

#include "crypto/counter.hpp"
#include "crypto/cpu.hpp"
#include "crypto/hash.hpp"
#include "crypto/mac.hpp"
#include "crypto/random.hpp"

namespace alpha::crypto {
namespace {

const HashAlgo kAlgos[] = {HashAlgo::kSha1, HashAlgo::kSha256,
                           HashAlgo::kMmo128};

Bytes pattern_bytes(std::size_t n, std::uint8_t base) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(base + i * 7);
  }
  return b;
}

TEST(HotPath, OneShotMatchesStreamingHasher) {
  // Cross the one-block boundary (<=55 bytes) in both directions and with
  // multi-part inputs split at every offset.
  for (const auto algo : kAlgos) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{20},
                          std::size_t{55}, std::size_t{56}, std::size_t{64},
                          std::size_t{100}, std::size_t{1000}}) {
      const Bytes data = pattern_bytes(n, 3);
      const auto hasher = make_hasher(algo);
      hasher->update(data);
      const Digest expect = hasher->finalize();
      EXPECT_EQ(hash(algo, data), expect) << to_string(algo) << " n=" << n;
      for (std::size_t split = 0; split <= n; split += 13) {
        const ByteView a{data.data(), split};
        const ByteView b{data.data() + split, n - split};
        EXPECT_EQ(hash2(algo, a, b), expect)
            << to_string(algo) << " n=" << n << " split=" << split;
        EXPECT_EQ(hash3(algo, a, b, {}), expect);
        EXPECT_EQ(hash3(algo, {}, a, b), expect);
      }
    }
  }
}

TEST(HotPath, HardwareAndScalarBackendsAgree) {
  // With acceleration unavailable this degenerates to scalar-vs-scalar,
  // which still exercises the toggle plumbing.
  for (const auto algo : kAlgos) {
    for (std::size_t n : {std::size_t{0}, std::size_t{20}, std::size_t{55},
                          std::size_t{56}, std::size_t{256},
                          std::size_t{1000}}) {
      const Bytes data = pattern_bytes(n, 11);
      const Digest accelerated = hash(algo, data);
      Digest scalar;
      {
        const ScopedScalarCrypto force_scalar;
        scalar = hash(algo, data);
      }
      EXPECT_EQ(accelerated, scalar) << to_string(algo) << " n=" << n;
    }
  }
}

TEST(HotPath, OneShotCounterMatchesStreaming) {
  // The fast path must count exactly like the streaming path: input bytes
  // (no padding), one finalization.
  for (const auto algo : kAlgos) {
    for (std::size_t n : {std::size_t{0}, std::size_t{30}, std::size_t{55},
                          std::size_t{56}, std::size_t{500}}) {
      const Bytes data = pattern_bytes(n, 1);
      HashOpCounts fast, streaming;
      {
        const ScopedHashOps ops;
        (void)hash(algo, data);
        fast = ops.delta();
      }
      {
        const ScopedHashOps ops;
        const auto hasher = make_hasher(algo);
        hasher->update(data);
        (void)hasher->finalize();
        streaming = ops.delta();
      }
      EXPECT_EQ(fast.hash_finalizations, streaming.hash_finalizations);
      EXPECT_EQ(fast.bytes_hashed, streaming.bytes_hashed);
      EXPECT_EQ(fast.hash_finalizations, 1u);
      EXPECT_EQ(fast.bytes_hashed, n);
    }
  }
}

TEST(HotPath, HmacKeyMatchesRfcHmac) {
  HmacDrbg rng(7);
  for (const auto algo : kAlgos) {
    for (std::size_t key_len : {std::size_t{1}, std::size_t{16},
                                std::size_t{20}, std::size_t{64},
                                std::size_t{100}}) {
      const Bytes key = rng.bytes(key_len);
      const HmacKey cached(algo, key);
      for (std::size_t n : {std::size_t{0}, std::size_t{40},
                            std::size_t{300}}) {
        const Bytes data = pattern_bytes(n, 5);
        const Digest expect = hmac(algo, key, data);
        EXPECT_EQ(cached.mac(data), expect)
            << to_string(algo) << " key=" << key_len << " n=" << n;
        EXPECT_TRUE(cached.verify(data, expect));
        Digest wrong = expect;
        Bytes flipped = wrong.bytes();
        flipped[0] ^= 1;
        EXPECT_FALSE(cached.verify(data, Digest{ByteView{flipped}}));
      }
    }
  }
}

TEST(HotPath, CachedHmacCounterParity) {
  // Per-MAC accounting must be identical to the from-scratch construction
  // (for keys up to one block; longer keys pay their pre-hash once at
  // construction instead of per call, a documented deviation).
  HmacDrbg rng(9);
  for (const auto algo : kAlgos) {
    // Within one block for every algo (16 bytes for AES-MMO): over-long
    // keys are exactly the documented deviation.
    const Bytes key = rng.bytes(digest_size(algo) > 16 ? 16 : digest_size(algo));
    const Bytes data = rng.bytes(333);
    const HmacKey cached(algo, key);
    HashOpCounts fresh, resumed;
    {
      const ScopedHashOps ops;
      (void)hmac(algo, key, data);
      fresh = ops.delta();
    }
    {
      const ScopedHashOps ops;
      (void)cached.mac(data);
      resumed = ops.delta();
    }
    EXPECT_EQ(resumed.hash_finalizations, fresh.hash_finalizations)
        << to_string(algo);
    EXPECT_EQ(resumed.bytes_hashed, fresh.bytes_hashed) << to_string(algo);
    EXPECT_EQ(fresh.hash_finalizations, 2u);
  }
}

TEST(HotPath, MacContextMatchesFreeFunctions) {
  HmacDrbg rng(11);
  for (const auto algo : kAlgos) {
    const Bytes key = rng.bytes(digest_size(algo));
    const Bytes long_key = rng.bytes(48);  // > Digest::kMaxSize for prefix
    const Bytes data = rng.bytes(200);
    for (const auto kind : {MacKind::kHmac, MacKind::kPrefix}) {
      const MacContext ctx(kind, algo, key);
      EXPECT_EQ(ctx.mac(data), mac(kind, algo, key, data)) << to_string(algo);
      EXPECT_TRUE(ctx.verify(data, mac(kind, algo, key, data)));
      const MacContext long_ctx(kind, algo, long_key);
      EXPECT_EQ(long_ctx.mac(data), mac(kind, algo, long_key, data));
    }
  }
}

TEST(HotPath, ConstantTimeCompareSemantics) {
  // Regression guard for the digest-comparison audit: ct_equals must agree
  // with operator== on every length combination, including empty digests.
  const Digest a{ByteView{pattern_bytes(20, 1)}};
  Digest b = a;
  EXPECT_TRUE(a.ct_equals(b));
  Bytes mut = a.bytes();
  mut[19] ^= 0x80;
  EXPECT_FALSE(a.ct_equals(Digest{ByteView{mut}}));
  EXPECT_FALSE(a.ct_equals(a.truncated(19)));  // length mismatch
  EXPECT_FALSE(a.ct_equals(Digest{}));
  EXPECT_TRUE(Digest{}.ct_equals(Digest{}));
}

}  // namespace
}  // namespace alpha::crypto
