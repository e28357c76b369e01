// Shared pieces of the two path workloads: the generated message format
// and the exactly-once / acked bookkeeping that the correctness check
// reads.
//
// A message payload is [u64 message id][u64 submit stamp][filler], the
// filler derived from the run seed and the id, so the receiver can check
// every byte it is handed and join its delivery to the submit.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common.hpp"
#include "core/signer.hpp"
#include "core/stats.hpp"
#include "crypto/bytes.hpp"

namespace perfbench {

inline alpha::crypto::Bytes make_payload(std::uint64_t seed,
                                         std::uint64_t msg_id,
                                         std::uint64_t stamp,
                                         std::size_t size) {
  alpha::crypto::Bytes p(size);
  std::memcpy(p.data(), &msg_id, 8);
  std::memcpy(p.data() + 8, &stamp, 8);
  fill_bytes(seed, msg_id, p.data() + 16, size - 16);
  return p;
}

/// Parses and checks a delivered payload; false if any byte differs from
/// what message `msg_id` was generated with.
inline bool parse_payload(std::uint64_t seed, alpha::crypto::ByteView p,
                          std::size_t size, std::uint64_t& msg_id,
                          std::uint64_t& stamp) {
  if (p.size() != size) return false;
  std::memcpy(&msg_id, p.data(), 8);
  std::memcpy(&stamp, p.data() + 8, 8);
  std::uint8_t expect[2048];
  if (size - 16 > sizeof expect) return false;
  fill_bytes(seed, msg_id, expect, size - 16);
  return std::memcmp(expect, p.data() + 16, size - 16) == 0;
}

/// Message ids are (per-association sequence) x associations + association
/// index, so an id, its association and its delivery cookie (sequence + 1,
/// the cookie ShardedNode::submit returns) map onto each other with no
/// table whose size would grow with the run.
struct MessageIds {
  std::size_t assocs = 1;
  std::uint64_t id(std::size_t assoc, std::uint64_t cookie) const noexcept {
    return (cookie - 1) * assocs + assoc;
  }
  std::size_t assoc_of(std::uint64_t id) const noexcept { return id % assocs; }
  std::uint64_t seq_of(std::uint64_t id) const noexcept { return id / assocs; }
};

/// Per-message delivery counts (2 bits, saturating) and ack flags (1 bit),
/// indexed by message id, in bit arrays sized and zeroed up front so the
/// benchmark's own memory does not grow with the work a run completes.
/// Deliveries and acks come from different threads: each array has one
/// writer, and both are read once the writers stopped.
class MessageBook {
 public:
  explicit MessageBook(std::uint64_t capacity)
      : capacity_(capacity),
        delivered_((capacity + 3) / 4, 0),
        acked_((capacity + 7) / 8, 0) {}

  /// Records a delivery (delivering thread).
  void delivered(std::uint64_t id) {
    if (id >= capacity_) {
      ++overflow;
      return;
    }
    std::uint8_t& b = delivered_[id / 4];
    const unsigned shift = (id % 4) * 2;
    const unsigned n = (b >> shift) & 3u;
    if (n < 3) b = static_cast<std::uint8_t>(b + (1u << shift));
    ++deliveries;
  }
  /// Forgets one delivery (self-test fault injection only).
  void forget(std::uint64_t id) {
    delivered_[id / 4] &= static_cast<std::uint8_t>(~(3u << ((id % 4) * 2)));
  }
  /// Records an ack (acking thread).
  void acked(std::uint64_t id) {
    if (id >= capacity_) return;
    acked_[id / 8] |= static_cast<std::uint8_t>(1u << (id % 8));
    ++acks;
  }

  /// Adds the run's checks to the report: every submitted message
  /// (submitted[a] per association a) delivered exactly once with its
  /// bytes and acked, nothing forged.
  void check(const MessageIds& ids, const std::vector<std::uint64_t>& submitted,
             Report& report) const;

  // Delivering thread.
  std::uint64_t deliveries = 0;
  std::uint64_t corrupt = 0;   // payloads that failed parse_payload
  std::uint64_t unknown = 0;   // ids never submitted
  std::uint64_t overflow = 0;  // ids beyond the book's capacity
  // Acking thread.
  std::uint64_t acks = 0;
  std::uint64_t bad_status = 0;  // kFailed / kNacked outcomes

 private:
  unsigned delivered_count(std::uint64_t id) const {
    return (delivered_[id / 4] >> ((id % 4) * 2)) & 3u;
  }
  bool is_acked(std::uint64_t id) const {
    return (acked_[id / 8] >> (id % 8)) & 1u;
  }

  std::uint64_t capacity_;
  std::vector<std::uint8_t> delivered_;
  std::vector<std::uint8_t> acked_;
};

/// Reports the four Table 1 categories per delivered message.
void report_hashes_per_msg(const alpha::core::HashWork& work,
                           std::uint64_t delivered, Report& report);

}  // namespace perfbench
