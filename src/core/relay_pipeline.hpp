// The relay engine: run-to-completion verify-and-forward over batches.
//
// Every relay binding in the runtime (NodeShard, and through it ShardedNode
// and ProtectedPath) is a RelayPipeline. RelayEngine
// (core/relay.hpp) is the reference implementation of the same decision
// procedure -- one frame in, one wire::decode (which heap-allocates the
// packet's vectors), one std::map walk to the association, one verdict out
// -- kept as the reference the test suites compare this engine against.
// A forwarding node at line rate would spend most of its cycles in
// that per-frame overhead, not in the hash checks the paper counts (Table 1
// relay column: ~2 hashes per data packet).
//
// RelayPipeline restructures the procedure around batches:
//
//  * frames are collected into a batch and demuxed in a peek pass that
//    resolves each frame's association to a slot in a flat, open-addressed
//    state array -- no map, no pointer chasing -- and software-prefetches
//    the slot so the verify pass never stalls on a cold association line;
//  * S2s (the steady-state traffic) are parsed with wire::parse_s2, a
//    zero-copy view parser that never touches the heap, and verified
//    against per-round memoized state: the first S2 of a round pays the
//    chain walk and the HMAC key schedule (ipad/opad midstates), every
//    later one re-uses both;
//  * surviving frames are emitted as ONE forward_batch callback per flush,
//    in arrival order, which is what lets the transport layer push them
//    with a single sendmmsg.
//
// A batch capacity of 1 flushes every frame: enqueue() verifies the frame
// and emits its forward before it returns. Larger batches flush when full
// or on flush(), which ShardedNode calls at end-of-drain on its worker
// threads and after every frame in its inline drive.
//
// Equivalence contract: decisions are a pure function of the frame
// sequence, never of batch boundaries. All verdict state persists across
// flushes, so chopping one frame sequence into batches of 1 or 1000
// produces bit-identical decisions, forwards, stats, buffer occupancy and
// trace events to RelayEngine -- asserted by the seeded-chaos equivalence
// suite (tests/core/relay_pipeline_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/relay.hpp"
#include "core/stats.hpp"
#include "crypto/mac.hpp"
#include "hashchain/chain.hpp"
#include "merkle/merkle.hpp"
#include "wire/packets.hpp"

namespace alpha::core {

class RelayPipeline {
 public:
  /// One verified frame ready to forward, in arrival order. The view points
  /// into the pipeline's recycled frame buffers and is only valid for the
  /// duration of the forward_batch call.
  struct ForwardItem {
    Direction dir = Direction::kForward;
    crypto::ByteView frame;
  };

  struct Callbacks {
    /// Emits one flush's worth of verified frames, in arrival order; called
    /// once per flush that forwarded anything. Receiving the whole batch at
    /// once is what lets the transport use one sendmmsg per flush. It must
    /// not feed frames back into this pipeline: the items view the batch
    /// buffers the next enqueue() overwrites.
    std::function<void(const ForwardItem* items, std::size_t count)>
        forward_batch;
    /// Authenticated payload extracted from a forwarded S2 (§3.5 secure
    /// signaling to middleboxes), reported before the frame's forward.
    std::function<void(std::uint32_t assoc_id, std::uint32_t seq,
                       std::uint16_t msg_index, crypto::ByteView payload)>
        on_extracted;
    /// Optional per-frame decision tap, invoked in arrival order (used by
    /// the equivalence suite; leave empty on the fast path).
    std::function<void(RelayDecision, Direction, crypto::ByteView)>
        on_decision;
  };

  /// `batch_capacity` frames are buffered before a flush triggers
  /// automatically (clamped to >= 1; 1 flushes every frame).
  RelayPipeline(Config config, RelayEngine::Options options,
                Callbacks callbacks, std::size_t batch_capacity);

  /// Copies one frame into the pending batch; auto-flushes at capacity.
  void enqueue(Direction dir, crypto::ByteView frame);

  /// Processes every pending frame and emits survivors as one batch. Call
  /// on idle / end-of-drain so partial batches never stall.
  void flush();

  std::size_t pending() const noexcept { return pending_count_; }
  std::size_t batch_capacity() const noexcept { return batch_capacity_; }
  std::size_t assoc_count() const noexcept { return slots_.size(); }
  const RelayStats& stats() const noexcept { return stats_; }

  /// Buffered bytes across all associations (Table 2 relay column: n*h).
  std::size_t buffered_bytes() const noexcept;
  /// Buffered acknowledgment commitments (Table 3 relay column: 2n*h).
  std::size_t ack_buffered_bytes() const noexcept;

 private:
  // Same limits as RelayEngine; decision equivalence depends on them.
  static constexpr std::size_t kMaxBatchMessages = 4096;
  static constexpr std::size_t kMaxRoundsPerFlow = 8;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Per-round verification state, storage-recycled on reuse: the vectors
  /// keep their capacity when a round slot is reassigned to a new seq, so
  /// steady-state round turnover does not allocate.
  struct Round {
    bool used = false;
    std::uint32_t seq = 0;
    Mode mode = Mode::kBase;
    std::size_t s1_index = 0;
    std::vector<crypto::Digest> macs;
    crypto::Digest merkle_root;
    std::uint16_t leaf_count = 0;
    std::vector<crypto::Digest> merkle_roots;  // ALPHA-C+M
    std::uint16_t group_size = 0;              // ALPHA-C+M
    bool a1_seen = false;

    wire::AckScheme scheme = wire::AckScheme::kNone;
    std::size_t a1_ack_index = 0;
    std::vector<crypto::Digest> pre_acks;
    std::vector<crypto::Digest> pre_nacks;
    crypto::Digest amt_root;
    std::uint16_t amt_count = 0;

    std::optional<crypto::Digest> disclosed;      // accepted MAC key
    std::optional<crypto::MacContext> mac_ctx;    // its key schedule
    std::optional<crypto::Digest> ack_disclosed;  // accepted A2 key

    std::size_t message_count() const noexcept {
      if (mode == Mode::kMerkle || mode == Mode::kCumulativeMerkle) {
        return leaf_count;
      }
      return macs.size();
    }
    void reset(std::uint32_t new_seq) noexcept;
  };

  struct Flow {
    std::optional<hashchain::ChainVerifier> sig;
    std::optional<hashchain::ChainVerifier> ack;
    crypto::Digest sig_anchor;  // detects duplicate handshakes (replay)
    Round rounds[kMaxRoundsPerFlow];  // unordered; (used, seq) identify

    Round* find_round(std::uint32_t seq) noexcept;
  };

  /// One association's state, inline in the flat slot array. Slots are
  /// created by handshakes and never removed, so a slot index, once
  /// resolved, stays valid for the pipeline's lifetime.
  struct AssocSlot {
    std::uint32_t assoc_id = 0;
    crypto::HashAlgo algo = crypto::HashAlgo::kSha1;
    bool handshake_seen = false;
    Flow flows[2];  // indexed by Direction
  };

  struct PendingFrame {
    Direction dir = Direction::kForward;
    std::vector<std::uint8_t> buf;  // grow-only, recycled across flushes
    std::uint32_t slot = kNoSlot;   // pass-1 demux result (prefetch hint)
  };

  // -- flat association table (open addressing, Fibonacci hash) --
  std::uint32_t find_slot(std::uint32_t assoc_id) const noexcept;
  std::uint32_t find_or_create_slot(std::uint32_t assoc_id);
  void grow_index();

  // -- decision procedure (mirrors RelayEngine handle_* exactly) --
  void process(PendingFrame& p);
  RelayDecision process_s2(Direction dir, const wire::S2View& s2,
                           crypto::ByteView frame, std::uint32_t slot_hint);
  RelayDecision process_handshake(Direction dir,
                                  const wire::HandshakePacket& hs,
                                  crypto::ByteView frame);
  RelayDecision process_s1(Direction dir, const wire::S1Packet& s1,
                           crypto::ByteView frame, std::uint32_t slot_hint);
  RelayDecision process_a1(Direction dir, const wire::A1Packet& a1,
                           crypto::ByteView frame, std::uint32_t slot_hint);
  RelayDecision process_a2(Direction dir, const wire::A2Packet& a2,
                           crypto::ByteView frame, std::uint32_t slot_hint);

  /// Inserts a round for `seq` mirroring the engine's emplace-then-evict
  /// map semantics: nullptr means the new round itself was the eviction
  /// victim (its seq is below every retained round of a full flow).
  Round* insert_round(Flow& flow, std::uint32_t seq);

  RelayDecision forward_to_batch(Direction dir, crypto::ByteView frame);
  RelayDecision drop(RelayDecision decision, crypto::ByteView frame,
                     trace::DropReason reason);
  RelayDecision malformed(crypto::ByteView frame);

  Config config_;
  RelayEngine::Options options_;
  Callbacks callbacks_;
  std::size_t batch_capacity_;

  std::vector<AssocSlot> slots_;
  std::vector<std::uint32_t> index_;  // slot+1 entries; 0 = empty
  std::vector<PendingFrame> pending_;
  std::size_t pending_count_ = 0;
  std::vector<ForwardItem> forward_items_;  // recycled per flush
  merkle::AuthPath path_scratch_;           // recycled {Bc} decode target

  RelayStats stats_;
};

}  // namespace alpha::core
