#include "crypto/ec.hpp"

#include <gtest/gtest.h>

namespace alpha::crypto {

// Found by ADL when gtest prints a test parameter. Without it the curve
// pointer is printed, and ASLR gives every run a different test name.
void PrintTo(const EcCurve* curve, std::ostream* os) { *os << curve->name(); }

namespace {

class EcCurveTest : public ::testing::TestWithParam<const EcCurve*> {};

INSTANTIATE_TEST_SUITE_P(Curves, EcCurveTest,
                         ::testing::Values(&EcCurve::secp160r1(),
                                           &EcCurve::p256()),
                         [](const auto& info) {
                           return info.param->name() == "P-256" ? "P256"
                                                                : "Secp160r1";
                         });

TEST_P(EcCurveTest, GeneratorOnCurve) {
  const EcCurve& c = *GetParam();
  EXPECT_TRUE(c.on_curve(c.generator()));
  EXPECT_FALSE(c.generator().infinity);
}

TEST_P(EcCurveTest, GeneratorHasStatedOrder) {
  const EcCurve& c = *GetParam();
  // n * G = infinity is the defining property of the subgroup order.
  EXPECT_TRUE(c.multiply(c.order(), c.generator()).infinity);
  // (n-1) * G = -G (not infinity).
  const EcPoint almost = c.multiply(c.order() - BigInt{1}, c.generator());
  EXPECT_FALSE(almost.infinity);
  EXPECT_EQ(almost.x, c.generator().x);
  // Adding G to (n-1)G closes the cycle.
  EXPECT_TRUE(c.add(almost, c.generator()).infinity);
}

TEST_P(EcCurveTest, GroupLaws) {
  const EcCurve& c = *GetParam();
  const EcPoint& g = c.generator();
  const EcPoint g2 = c.double_point(g);
  const EcPoint g3a = c.add(g2, g);
  const EcPoint g3b = c.add(g, g2);
  EXPECT_EQ(g3a, g3b);  // commutativity
  EXPECT_TRUE(c.on_curve(g2));
  EXPECT_TRUE(c.on_curve(g3a));
  // 2G + 2G == 4G == double(double(G))
  EXPECT_EQ(c.add(g2, g2), c.double_point(g2));
  // Identity element.
  EXPECT_EQ(c.add(g, EcPoint::at_infinity()), g);
  EXPECT_EQ(c.add(EcPoint::at_infinity(), g), g);
}

TEST_P(EcCurveTest, ScalarMultiplicationDistributes) {
  const EcCurve& c = *GetParam();
  const EcPoint& g = c.generator();
  // (5+7)G == 5G + 7G
  EXPECT_EQ(c.multiply(BigInt{12}, g),
            c.add(c.multiply(BigInt{5}, g), c.multiply(BigInt{7}, g)));
  // 2*(3G) == 6G
  EXPECT_EQ(c.double_point(c.multiply(BigInt{3}, g)),
            c.multiply(BigInt{6}, g));
}

TEST_P(EcCurveTest, EcdsaSignVerifyRoundtrip) {
  const EcCurve& c = *GetParam();
  HmacDrbg rng{1};
  const EcdsaPrivateKey key = ecdsa_generate(c, rng);
  EXPECT_TRUE(c.on_curve(key.pub.point));

  const auto msg = as_bytes("anchor: deadbeef, chains: 1024");
  const EcdsaSignature sig = ecdsa_sign(key, HashAlgo::kSha1, msg, rng);
  EXPECT_TRUE(ecdsa_verify(key.pub, HashAlgo::kSha1, msg, sig));
  EXPECT_FALSE(ecdsa_verify(key.pub, HashAlgo::kSha1,
                            as_bytes("anchor: deadbeee, chains: 1024"), sig));
}

TEST_P(EcCurveTest, EcdsaSha256Roundtrip) {
  const EcCurve& c = *GetParam();
  HmacDrbg rng{2};
  const EcdsaPrivateKey key = ecdsa_generate(c, rng);
  const auto msg = as_bytes("modern hash profile");
  const EcdsaSignature sig = ecdsa_sign(key, HashAlgo::kSha256, msg, rng);
  EXPECT_TRUE(ecdsa_verify(key.pub, HashAlgo::kSha256, msg, sig));
}

TEST_P(EcCurveTest, TamperedSignatureRejected) {
  const EcCurve& c = *GetParam();
  HmacDrbg rng{3};
  const EcdsaPrivateKey key = ecdsa_generate(c, rng);
  const auto msg = as_bytes("m");
  EcdsaSignature sig = ecdsa_sign(key, HashAlgo::kSha1, msg, rng);
  sig.r = sig.r + BigInt{1};
  EXPECT_FALSE(ecdsa_verify(key.pub, HashAlgo::kSha1, msg, sig));
}

TEST_P(EcCurveTest, OutOfRangeSignatureRejected) {
  const EcCurve& c = *GetParam();
  HmacDrbg rng{4};
  const EcdsaPrivateKey key = ecdsa_generate(c, rng);
  const auto msg = as_bytes("m");
  EXPECT_FALSE(ecdsa_verify(key.pub, HashAlgo::kSha1, msg,
                            {BigInt{}, BigInt{1}}));
  EXPECT_FALSE(ecdsa_verify(key.pub, HashAlgo::kSha1, msg,
                            {c.order(), BigInt{1}}));
}

TEST_P(EcCurveTest, WrongKeyRejected) {
  const EcCurve& c = *GetParam();
  HmacDrbg rng{5};
  const EcdsaPrivateKey key = ecdsa_generate(c, rng);
  const EcdsaPrivateKey other = ecdsa_generate(c, rng);
  const auto msg = as_bytes("m");
  const EcdsaSignature sig = ecdsa_sign(key, HashAlgo::kSha1, msg, rng);
  EXPECT_FALSE(ecdsa_verify(other.pub, HashAlgo::kSha1, msg, sig));
}

TEST_P(EcCurveTest, PublicKeyEncodeDecodeRoundtrip) {
  const EcCurve& c = *GetParam();
  HmacDrbg rng{6};
  const EcdsaPrivateKey key = ecdsa_generate(c, rng);
  const Bytes encoded = key.pub.encode();
  EXPECT_EQ(encoded.size(), 1 + 2 * c.field_bytes());
  EXPECT_EQ(encoded[0], 0x04);
  const auto decoded = EcdsaPublicKey::decode(c, encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->point, key.pub.point);
}

TEST_P(EcCurveTest, DecodeRejectsOffCurvePoints) {
  const EcCurve& c = *GetParam();
  HmacDrbg rng{7};
  Bytes bad = ecdsa_generate(c, rng).pub.encode();
  bad[bad.size() - 1] ^= 1;  // perturb Y
  EXPECT_FALSE(EcdsaPublicKey::decode(c, bad).has_value());
  EXPECT_FALSE(EcdsaPublicKey::decode(c, Bytes{0x04, 1, 2}).has_value());
  EXPECT_FALSE(EcdsaPublicKey::decode(c, {}).has_value());
}

TEST_P(EcCurveTest, SignatureEncodeDecodeRoundtrip) {
  const EcCurve& c = *GetParam();
  HmacDrbg rng{8};
  const EcdsaPrivateKey key = ecdsa_generate(c, rng);
  const auto msg = as_bytes("wire");
  const EcdsaSignature sig = ecdsa_sign(key, HashAlgo::kSha1, msg, rng);
  const Bytes wire = sig.encode(c.order_bytes());
  EXPECT_EQ(wire.size(), 2 * c.order_bytes());
  const auto back = EcdsaSignature::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(ecdsa_verify(key.pub, HashAlgo::kSha1, msg, *back));
}

TEST_P(EcCurveTest, RandomizedNonces) {
  const EcCurve& c = *GetParam();
  HmacDrbg rng{9};
  const EcdsaPrivateKey key = ecdsa_generate(c, rng);
  const auto msg = as_bytes("same message");
  const EcdsaSignature s1 = ecdsa_sign(key, HashAlgo::kSha1, msg, rng);
  const EcdsaSignature s2 = ecdsa_sign(key, HashAlgo::kSha1, msg, rng);
  EXPECT_NE(s1.r, s2.r);
  EXPECT_TRUE(ecdsa_verify(key.pub, HashAlgo::kSha1, msg, s1));
  EXPECT_TRUE(ecdsa_verify(key.pub, HashAlgo::kSha1, msg, s2));
}

TEST_P(EcCurveTest, JacobianMultiplyMatchesAffineChain) {
  // multiply() uses Jacobian coordinates internally; cross-check against a
  // pure affine repeated-addition ladder for a spread of scalars.
  const EcCurve& c = *GetParam();
  const EcPoint& g = c.generator();
  EcPoint affine_acc = EcPoint::at_infinity();
  for (std::uint64_t k = 1; k <= 40; ++k) {
    affine_acc = c.add(affine_acc, g);  // affine_acc = k*G via additions
    EXPECT_EQ(c.multiply(BigInt{k}, g), affine_acc) << "k=" << k;
  }
}

TEST_P(EcCurveTest, JacobianMultiplyRandomScalarsConsistent) {
  // (a+b)G == aG + bG for random a, b exercises all Jacobian branches.
  const EcCurve& c = *GetParam();
  HmacDrbg rng{0x7ac};
  for (int i = 0; i < 10; ++i) {
    const BigInt a = BigInt::random_below(rng, c.order());
    const BigInt b = BigInt::random_below(rng, c.order());
    const EcPoint lhs = c.multiply((a + b) % c.order(), c.generator());
    const EcPoint rhs =
        c.add(c.multiply(a, c.generator()), c.multiply(b, c.generator()));
    EXPECT_EQ(lhs, rhs) << "i=" << i;
  }
}

// Known-answer check for P-256 scalar multiplication: 2G has a well-known
// x-coordinate (from public NIST/SEC test vectors).
TEST(P256KnownAnswerTest, TwoG) {
  const EcCurve& c = EcCurve::p256();
  const EcPoint g2 = c.double_point(c.generator());
  EXPECT_EQ(
      g2.x.to_hex(),
      "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
  EXPECT_EQ(
      g2.y.to_hex(),
      "7775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1");
}

}  // namespace
}  // namespace alpha::crypto
