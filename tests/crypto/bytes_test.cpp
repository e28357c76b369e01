#include "crypto/bytes.hpp"

#include <gtest/gtest.h>

namespace alpha::crypto {
namespace {

TEST(BytesTest, ToHexEmpty) { EXPECT_EQ(to_hex({}), ""); }

TEST(BytesTest, ToHexKnown) {
  const Bytes data{0xde, 0xad, 0xbe, 0xef, 0x00, 0x7f};
  EXPECT_EQ(to_hex(data), "deadbeef007f");
}

TEST(BytesTest, FromHexRoundtrip) {
  const Bytes data{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef};
  EXPECT_EQ(from_hex(to_hex(data)), data);
}

TEST(BytesTest, FromHexUppercase) {
  EXPECT_EQ(from_hex("DEADBEEF"), (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(BytesTest, FromHexRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(BytesTest, FromHexRejectsNonHex) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
  EXPECT_THROW(from_hex("0g"), std::invalid_argument);
}

TEST(BytesTest, CtEqualBasics) {
  const Bytes a{1, 2, 3};
  const Bytes b{1, 2, 3};
  const Bytes c{1, 2, 4};
  const Bytes d{1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
  EXPECT_TRUE(ct_equal({}, {}));
}

TEST(BytesTest, ConcatOrdersParts) {
  const Bytes a{1, 2};
  const Bytes b{3};
  const Bytes c{4, 5, 6};
  EXPECT_EQ(concat({ByteView{a}, ByteView{b}, ByteView{c}}),
            (Bytes{1, 2, 3, 4, 5, 6}));
}

TEST(BytesTest, ConcatEmptyParts) {
  EXPECT_TRUE(concat({}).empty());
  const Bytes a{9};
  EXPECT_EQ(concat({ByteView{}, ByteView{a}, ByteView{}}), (Bytes{9}));
}

TEST(BytesTest, AsBytesExcludesNul) {
  const auto v = as_bytes("S1");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 'S');
  EXPECT_EQ(v[1], '1');
}

TEST(BytesTest, AppendExtends) {
  Bytes dst{1};
  const Bytes src{2, 3};
  append(dst, src);
  EXPECT_EQ(dst, (Bytes{1, 2, 3}));
}

TEST(Crc32Test, KnownAnswers) {
  // The CRC-32 check value, and zlib.crc32 of the pangram.
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32(as_bytes("The quick brown fox jumps over the lazy dog")),
            0x414fa339u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32Test, SeedContinuesAPreviousCrc) {
  EXPECT_EQ(crc32(as_bytes("56789"), crc32(as_bytes("1234"))), 0xcbf43926u);
  EXPECT_EQ(crc32(as_bytes("9"), crc32(as_bytes("12345678"))), 0xcbf43926u);
  // No bytes leave the running CRC unchanged.
  EXPECT_EQ(crc32({}, 0xcbf43926u), 0xcbf43926u);
}

}  // namespace
}  // namespace alpha::crypto
