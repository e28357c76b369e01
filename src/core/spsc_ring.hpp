// Lock-free single-producer / single-consumer rings for the sharded runtime.
//
// The supervisor/worker split (core/sharded_node.hpp) moves every frame
// between exactly two threads: the I/O thread that drains the transport and
// the one shard worker that owns the frame's association. That pairing makes
// the classic SPSC ring sufficient -- one atomic head owned by the producer,
// one atomic tail owned by the consumer, no CAS, no locks, wait-free on both
// sides. Capacity is fixed at construction (rounded up to a power of two) so
// the steady state never allocates; backpressure is explicit: try_push fails
// when the ring is full and the producer counts the overflow instead of
// blocking the I/O loop.
//
// Head and tail live on separate cache lines so the producer and consumer
// do not false-share; each side keeps a cached copy of the other's index to
// avoid re-reading the shared atomic on every operation (it only refreshes
// when the cached value says "full"/"empty").
//
// FrameRing carries wire frames: every slot owns a reusable byte buffer
// that grows to the largest frame it ever carried and is never shrunk, so
// after warmup a push is a memcpy into recycled storage -- the 0 allocs/op
// guarantee of the PR 3/4 hot path extends across the thread hop.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "crypto/bytes.hpp"

namespace alpha::core {

// 64 on every target we build for; the std::hardware_destructive_
// interference_size constant is deliberately avoided because its value is
// an ABI hazard GCC warns about (-Winterference-size).
inline constexpr std::size_t kCacheLine = 64;

namespace detail {
constexpr std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace detail

/// One entry handed between the I/O thread and a shard worker. `kind`
/// multiplexes data frames with the rare control operations that must
/// execute on the shard thread (submit / start / snapshot requests), so a
/// shard drains exactly one queue in arrival order.
struct FrameSlot {
  enum class Kind : std::uint8_t {
    kFrame = 0,    // inbound wire frame (payload = frame bytes)
    kSubmit = 1,   // application message to submit (payload = message)
    kStart = 2,    // start(assoc_id)
    kSnapshot = 3, // publish a snapshot fragment and ack
  };
  Kind kind = Kind::kFrame;
  std::uint64_t peer = 0;      // source/destination address
  std::uint64_t time_us = 0;   // receive/submit timestamp
  std::uint32_t assoc_id = 0;  // control ops: target association
  std::uint32_t size = 0;      // valid bytes in buf
  std::vector<std::uint8_t> buf;  // grow-only recycled storage

  crypto::ByteView view() const noexcept {
    return crypto::ByteView{buf.data(), size};
  }
};

/// SPSC ring of FrameSlots with slot-owned recycled buffers. Push copies
/// the payload into the slot's buffer (grow-only: after warmup, a memcpy);
/// pop hands the whole slot to the consumer and takes the previous slot
/// back so its buffer re-enters the pool. Overflows are counted, not
/// blocked on -- the producer decides what dropping a frame means.
class FrameRing {
 public:
  explicit FrameRing(std::size_t capacity)
      : slots_(detail::round_up_pow2(capacity < 2 ? 2 : capacity)),
        mask_(slots_.size() - 1) {}

  FrameRing(const FrameRing&) = delete;
  FrameRing& operator=(const FrameRing&) = delete;

  /// Producer: copies `payload` into the next slot. False + overflow count
  /// when full.
  bool try_push(FrameSlot::Kind kind, std::uint64_t peer,
                std::uint64_t time_us, std::uint32_t assoc_id,
                crypto::ByteView payload) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ >= slots_.size()) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ >= slots_.size()) {
        overflows_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    FrameSlot& slot = slots_[head & mask_];
    slot.kind = kind;
    slot.peer = peer;
    slot.time_us = time_us;
    slot.assoc_id = assoc_id;
    slot.size = static_cast<std::uint32_t>(payload.size());
    if (slot.buf.size() < payload.size()) slot.buf.resize(payload.size());
    if (!payload.empty()) {
      std::memcpy(slot.buf.data(), payload.data(), payload.size());
    }
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer: borrows the next slot. The pointer stays valid until a pop
  /// releases that slot back to the producer.
  const FrameSlot* front() noexcept { return peek(0); }

  /// Consumer: borrows the i-th pending slot (0 = oldest), or nullptr when
  /// fewer than i+1 entries are queued. Multiple slots may be borrowed at
  /// once -- the producer cannot overwrite anything not yet popped -- which
  /// is what lets the I/O thread gather a whole outbound batch by view
  /// before one sendmmsg, then release exactly the accepted prefix.
  const FrameSlot* peek(std::size_t i) noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    // Compare the monotone counters directly: cached_head_ may be stale
    // (behind tail) and a subtraction would underflow into "available".
    if (cached_head_ < tail + i + 1) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (cached_head_ < tail + i + 1) return nullptr;
    }
    return &slots_[(tail + i) & mask_];
  }

  /// Consumer: releases the slot returned by front().
  void pop() noexcept { pop_n(1); }

  /// Consumer: releases the n oldest borrowed slots.
  void pop_n(std::size_t n) noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    tail_.store(tail + n, std::memory_order_release);
  }

  std::size_t capacity() const noexcept { return slots_.size(); }
  std::size_t size_approx() const noexcept {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return head >= tail ? static_cast<std::size_t>(head - tail) : 0;
  }
  /// Frames refused because the ring was full (producer-side backpressure).
  std::uint64_t overflows() const noexcept {
    return overflows_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<FrameSlot> slots_;
  std::uint64_t mask_;
  std::atomic<std::uint64_t> overflows_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};
  alignas(kCacheLine) std::uint64_t cached_tail_ = 0;   // producer-owned
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};
  alignas(kCacheLine) std::uint64_t cached_head_ = 0;   // consumer-owned
};

/// Shard ownership: which of `shards` workers serves `assoc_id`. Pure
/// function of the association id alone -- deliberately independent of
/// generation, peer address, and handshake counters, so rekeys and
/// responder-side on-demand accepts can never migrate an association across
/// shards (tests/core/sharded_node_test.cpp locks this in). Fibonacci
/// multiplicative hash spreads sequentially-allocated ids evenly.
constexpr std::uint32_t shard_of(std::uint32_t assoc_id,
                                 std::uint32_t shards) noexcept {
  if (shards <= 1) return 0;
  const std::uint32_t h = assoc_id * 0x9E3779B9u;
  return (h >> 16) % shards;
}

}  // namespace alpha::core
