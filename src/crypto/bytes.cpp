#include "crypto/bytes.hpp"

#include <array>
#include <stdexcept>

namespace alpha::crypto {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string to_hex(ByteView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("from_hex: non-hex character");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

bool ct_equal(ByteView a, ByteView b) noexcept {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = static_cast<std::uint8_t>(diff | (a[i] ^ b[i]));
  }
  return diff == 0;
}

Bytes concat(std::initializer_list<ByteView> parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  Bytes out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

ByteView as_bytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

void append(Bytes& dst, ByteView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

std::uint32_t crc32(ByteView data, std::uint32_t seed) noexcept {
  // Built on first use, so the library carries no 1 KiB static initializer.
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = seed ^ 0xffffffffu;
  for (const std::uint8_t b : data) {
    crc = table[(crc ^ b) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace alpha::crypto
