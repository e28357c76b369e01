// Byte-buffer utilities shared by all ALPHA modules.
//
// The whole code base deals in `Bytes` (a std::vector<uint8_t>) for owned
// buffers and `std::span<const uint8_t>` for views. This header adds the small
// set of helpers the protocol needs: hex encoding for diagnostics, constant
// time comparison for digests and MACs, and concatenation helpers used when
// building hash inputs such as H(tag | h) or H(left | right).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace alpha::crypto {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Encodes a byte view as lowercase hex ("deadbeef").
std::string to_hex(ByteView data);

/// Decodes a hex string (case-insensitive, no separators). Throws
/// std::invalid_argument on odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Constant-time equality: runs in time dependent only on the lengths.
/// Returns false for mismatched lengths (length is not secret here).
bool ct_equal(ByteView a, ByteView b) noexcept;

/// Returns the concatenation of the given views in order.
Bytes concat(std::initializer_list<ByteView> parts);

/// Converts a string literal tag (e.g. "S1") to a byte view over its
/// characters, excluding the terminating NUL.
ByteView as_bytes(std::string_view s) noexcept;

/// Appends `src` to `dst`.
void append(Bytes& dst, ByteView src);

/// CRC-32 (IEEE 802.3; reflected polynomial 0xEDB88320, equal to Python's
/// zlib.crc32) over `data`, continuing from `seed`, the CRC of the bytes
/// before it: crc32(b, crc32(a)) == crc32(a || b). It is the wire frame
/// trailer and the flight-recording header checksum.
std::uint32_t crc32(ByteView data, std::uint32_t seed = 0) noexcept;

}  // namespace alpha::crypto
