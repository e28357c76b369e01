// The lock-free SPSC frame ring under the sharded runtime: FIFO order,
// explicit overflow accounting, multi-slot borrowing for batched flushes,
// buffer recycling, cross-thread handoff, and the shard-ownership hash.
#include "core/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

namespace alpha::core {
namespace {

using crypto::ByteView;
using crypto::Bytes;

Bytes payload_for(std::uint32_t i, std::size_t size) {
  Bytes b(size);
  for (std::size_t k = 0; k < size; ++k) {
    b[k] = static_cast<std::uint8_t>(i + k);
  }
  return b;
}

// ------------------------------------------------------------- frame ring

TEST(FrameRingTest, CarriesPayloadAndMetadata) {
  FrameRing ring(8);
  const Bytes p = payload_for(7, 48);
  ASSERT_TRUE(ring.try_push(FrameSlot::Kind::kSubmit, /*peer=*/42,
                            /*time_us=*/1000, /*assoc_id=*/7,
                            ByteView{p.data(), p.size()}));
  const FrameSlot* slot = ring.front();
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->kind, FrameSlot::Kind::kSubmit);
  EXPECT_EQ(slot->peer, 42u);
  EXPECT_EQ(slot->time_us, 1000u);
  EXPECT_EQ(slot->assoc_id, 7u);
  ASSERT_EQ(slot->view().size(), p.size());
  EXPECT_EQ(std::memcmp(slot->view().data(), p.data(), p.size()), 0);
  ring.pop();
  EXPECT_EQ(ring.front(), nullptr);
}

TEST(FrameRingTest, OverflowIsCountedNotBlocked) {
  FrameRing ring(2);
  const Bytes p = payload_for(0, 16);
  const ByteView v{p.data(), p.size()};
  EXPECT_TRUE(ring.try_push(FrameSlot::Kind::kFrame, 0, 0, 0, v));
  EXPECT_TRUE(ring.try_push(FrameSlot::Kind::kFrame, 0, 0, 0, v));
  EXPECT_FALSE(ring.try_push(FrameSlot::Kind::kFrame, 0, 0, 0, v));
  EXPECT_FALSE(ring.try_push(FrameSlot::Kind::kFrame, 0, 0, 0, v));
  EXPECT_EQ(ring.overflows(), 2u);
  ring.pop();  // frees one slot
  EXPECT_TRUE(ring.try_push(FrameSlot::Kind::kFrame, 0, 0, 0, v));
  EXPECT_EQ(ring.overflows(), 2u);
}

TEST(FrameRingTest, PeekBorrowsMultipleSlotsForBatchedFlush) {
  FrameRing ring(8);
  for (std::uint32_t i = 0; i < 5; ++i) {
    const Bytes p = payload_for(i, 8 + i);
    ASSERT_TRUE(ring.try_push(FrameSlot::Kind::kFrame, i, i, i,
                              ByteView{p.data(), p.size()}));
  }
  // Borrow all five at once (the I/O thread gathers a sendmmsg batch this
  // way), then release only an "accepted" prefix of three.
  for (std::uint32_t i = 0; i < 5; ++i) {
    const FrameSlot* slot = ring.peek(i);
    ASSERT_NE(slot, nullptr) << i;
    EXPECT_EQ(slot->peer, i);
    EXPECT_EQ(slot->view().size(), 8u + i);
  }
  EXPECT_EQ(ring.peek(5), nullptr);
  ring.pop_n(3);
  ASSERT_NE(ring.peek(0), nullptr);
  EXPECT_EQ(ring.peek(0)->peer, 3u);  // the unaccepted tail survives
  EXPECT_EQ(ring.size_approx(), 2u);
}

TEST(FrameRingTest, SlotBuffersAreRecycledAcrossWraps) {
  FrameRing ring(4);
  const Bytes big = payload_for(1, 512);
  const Bytes small = payload_for(2, 16);
  // Grow every slot once.
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(ring.try_push(FrameSlot::Kind::kFrame, 0, 0, 0,
                              ByteView{big.data(), big.size()}));
    const FrameSlot* slot = ring.front();
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->view().size(), big.size());
    ring.pop();
  }
  // Smaller payloads reuse the grown storage; size reports the valid bytes.
  ASSERT_TRUE(ring.try_push(FrameSlot::Kind::kFrame, 0, 0, 0,
                            ByteView{small.data(), small.size()}));
  const FrameSlot* slot = ring.front();
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->view().size(), small.size());
  EXPECT_GE(slot->buf.capacity(), big.size());  // storage kept, not shrunk
  EXPECT_EQ(std::memcmp(slot->view().data(), small.data(), small.size()), 0);
}

TEST(FrameRingTest, CrossThreadFramesArriveIntact) {
  constexpr std::uint32_t kFrames = 20'000;
  FrameRing ring(64);
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      const Bytes p = payload_for(i, 32 + (i % 64));
      while (!ring.try_push(FrameSlot::Kind::kFrame, i, i, i,
                            ByteView{p.data(), p.size()})) {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    const FrameSlot* slot;
    while ((slot = ring.front()) == nullptr) std::this_thread::yield();
    ASSERT_EQ(slot->peer, i);
    const Bytes expect = payload_for(i, 32 + (i % 64));
    ASSERT_EQ(slot->view().size(), expect.size());
    ASSERT_EQ(std::memcmp(slot->view().data(), expect.data(), expect.size()),
              0);
    ring.pop();
  }
  producer.join();
  // overflows() counts refused push attempts; the producer retried each one,
  // so frames were delayed, never lost -- exactly the backpressure contract.
  EXPECT_EQ(ring.size_approx(), 0u);
}

// ---------------------------------------------------------- shard_of hash

TEST(ShardOfTest, StableAndInRange) {
  for (std::uint32_t id = 0; id < 1000; ++id) {
    for (std::uint32_t shards : {1u, 2u, 3u, 4u, 8u}) {
      const std::uint32_t s = shard_of(id, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, shard_of(id, shards));  // pure function of (id, shards)
    }
  }
  EXPECT_EQ(shard_of(12345, 0), 0u);
  EXPECT_EQ(shard_of(12345, 1), 0u);
}

TEST(ShardOfTest, SpreadsSequentialIdsEvenly) {
  // Association ids are typically allocated sequentially; the multiplicative
  // hash must not let a contiguous range collapse onto few shards.
  constexpr std::uint32_t kShards = 4;
  constexpr std::uint32_t kIds = 10'000;
  std::vector<std::uint32_t> count(kShards, 0);
  for (std::uint32_t id = 1; id <= kIds; ++id) ++count[shard_of(id, kShards)];
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_GT(count[s], kIds / kShards / 2) << "shard " << s << " starved";
    EXPECT_LT(count[s], kIds * 2 / kShards) << "shard " << s << " overloaded";
  }
}

}  // namespace
}  // namespace alpha::core
