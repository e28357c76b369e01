// The node runtime: N NodeShards behind one transport.
//
// Every ALPHA node -- signer, relay, verifier, or any mix of them -- runs
// on ShardedNode. Each of the N shards owns one NodeShard: a disjoint
// assoc-id-hash slice of the associations (core::shard_of) with its own
// timer wheel, RNG, and counters, so shards share no mutable state at all.
// The runtime has two drives.
//
// Threaded drive (sockets, workers >= 1): one dedicated I/O thread owns the
// transport, N worker threads own the shards, and lock-free SPSC rings are
// the only synchronization between them:
//
//   transport -> [I/O thread] --peek assoc id, shard_of()--> in-ring[i]
//                                                             |
//                                        [worker i]  <--------+
//                                            | on_frame/advance_timers
//                                            v
//                            out-ring[i] -> [I/O thread] -> send_batch()
//
// The I/O thread drains inbound frames with batched syscalls (recvmmsg on
// UDP), demuxes each by the bounds-checked association-id peek
// (wire::peek_assoc_id -- no decode, no crypto), and hands it to the owning
// shard's in-ring. Outbound frames ride shard-owned out-rings back to the
// I/O thread, which gathers them into sendmmsg batches (partial kernel
// completions release exactly the accepted prefix; the tail stays queued).
// Backpressure is explicit, never blocking: a full in-ring drops the frame
// and counts an overflow -- indistinguishable from network loss, so the
// protocol's retransmission machinery recovers, exactly as under chaos. A
// full out-ring surfaces as a send failure on the shard. Threads launch
// lazily on the first start()/submit()/poll()/snapshot(), so association
// setup needs no locks; callbacks fire on worker threads. Rare control
// operations (start, submit, snapshot requests) ride a third,
// supervisor->shard ring -- they cannot share the frame in-ring without
// giving it two producers -- multiplexed by FrameSlot::Kind and drained by
// the worker ahead of frames each pass.
//
// Inline drive (the simulator, or workers == 0 over sockets): one thread --
// the one running the simulator or calling poll() -- plays every role, and
// no ring is involved. The transport's receiver peeks the association id
// and calls the owning shard's on_frame() and then flush_relays(); a
// shard's sends go straight to transport->send(); timer wakeups ride
// transport->schedule(). A frame produced at virtual time t therefore
// enters the network at t, even when the application drives a Host
// directly, and seeded simulator runs replay bit-identically at any shard
// count. (The simulator's virtual clock cannot be shared across threads,
// so it always drives inline.)
//
// Scrape-time aggregation: snapshot() merges per-shard fragments on demand
// with NodeSnapshot::merge in both drives (the threaded drive round-trips a
// request through each shard's control ring so shard state is only ever
// touched by its owner); nothing cross-shard is maintained on the hot path.
//
// Relay bindings shard by association id, exactly like hosts: relay state
// (chain verifiers, buffered pre-signatures, round memos) is keyed purely
// by assoc id, so add_relay() registers one binding per shard and the
// shard_of() demux routes every frame of an association -- and therefore
// all of its relay state -- to one owning shard. Every binding is a
// RelayPipeline; relay_batch is only its flush size, and only matters
// threaded: a worker flushes at end-of-drain or when the batch fills,
// while the inline drive flushes after every frame.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/shard.hpp"
#include "core/spsc_ring.hpp"
#include "net/transport.hpp"

namespace alpha::core {

class ShardedNode {
 public:
  struct Options {
    /// Per-shard runtime options. `seed` is the node seed; shard i derives
    /// seed + i so shards draw distinct chain material deterministically.
    NodeShard::Options shard;
    /// Number of shards, and of worker threads in the threaded drive.
    /// 0 = one shard and no worker threads: the inline drive even over
    /// sockets, running the shard on the thread that calls poll(). The
    /// simulator always drives inline, so there 0 and 1 behave the same.
    std::uint32_t workers = 1;
    /// Runs at the top of each worker thread (threaded drive only), before
    /// any frame is processed -- the hook for installing thread-local trace
    /// sinks. Called with the shard index.
    std::function<void(std::uint32_t shard_index)> worker_init;
  };

  using Callbacks = NodeShard::Callbacks;

  /// Per-shard queue instrumentation, cheap enough to scrape live. The
  /// ring depths and overflows stay 0 in the inline drive, which has no
  /// rings.
  struct ShardStats {
    std::uint32_t shard = 0;
    std::size_t in_depth = 0;        // frames queued toward the shard
    std::size_t out_depth = 0;       // frames queued toward the transport
    std::uint64_t in_overflows = 0;  // inbound frames dropped (ring full)
    std::uint64_t out_overflows = 0; // outbound frames refused (ring full)
    std::uint64_t frames_routed = 0; // inbound frames demuxed to this shard
    std::size_t relay_pending = 0;   // frames awaiting a relay batch flush
  };

  /// Takes ownership of the transport. The drive is threaded when the
  /// transport clock is thread-safe and `workers` >= 1: worker threads
  /// launch lazily on the first start()/submit()/poll()/snapshot(), all
  /// add_* calls must happen before that, and callbacks fire on worker
  /// threads. Otherwise it is inline and callbacks fire on the caller's
  /// thread.
  ShardedNode(std::unique_ptr<net::Transport> transport, Options options,
              Callbacks callbacks = {});
  ~ShardedNode();

  ShardedNode(const ShardedNode&) = delete;
  ShardedNode& operator=(const ShardedNode&) = delete;

  /// Adds an initiator-side association toward `peer` on its owning shard.
  /// Only before the workers launch (throws std::logic_error after).
  Host& add_initiator(std::uint32_t assoc_id, net::PeerAddr peer);
  Host& add_initiator(std::uint32_t assoc_id, net::PeerAddr peer,
                      const Config& config,
                      const Host::Options& host_options = {});

  /// Adds a pre-provisioned responder-side association toward `peer`.
  Host& add_responder(std::uint32_t assoc_id, net::PeerAddr peer);
  Host& add_responder(std::uint32_t assoc_id, net::PeerAddr peer,
                      const Config& config,
                      const Host::Options& host_options = {});

  /// Adds a relay binding between `upstream` and `downstream` to every
  /// shard; each shard's binding is registered for the slice of `assoc_ids`
  /// that hashes to it, so ownership matches the I/O thread's routing.
  /// `relay_batch` is the RelayPipeline flush size in the threaded drive
  /// (1 flushes every frame; larger batches also flush at end-of-drain);
  /// the inline drive flushes after every frame. Frames from `downstream`
  /// travel kReverse; anything else -- including unknown injectors --
  /// travels kForward, so floods die at the relay (§3.5). An empty
  /// `assoc_ids` binds every association the shard sees. Only before the
  /// workers launch (throws std::logic_error after).
  void add_relay(net::PeerAddr upstream, net::PeerAddr downstream,
                 std::vector<std::uint32_t> assoc_ids,
                 std::size_t relay_batch = 32,
                 RelayEngine::Options relay_options = {},
                 NodeShard::ExtractFn on_extracted = nullptr);

  /// Initiator bootstrap: sends the HS1 and arms the retransmission timer.
  /// Threaded drive: enqueued to the owning shard.
  void start(std::uint32_t assoc_id);

  /// Submits one message. Returns the delivery cookie (per-association,
  /// monotonically increasing from 1 in submit order -- mirrored by the
  /// supervisor in the threaded drive, where the actual submit runs on the
  /// shard; the ring's FIFO order makes the mirror exact).
  std::uint64_t submit(std::uint32_t assoc_id, crypto::Bytes payload);

  /// Inline drive: drives the transport (frames + timers) for up to
  /// `timeout_ms` and returns frames processed. Simulator-backed nodes may
  /// instead be driven by Simulator::run_until directly -- timers fire from
  /// the event queue. Threaded drive: the I/O and worker threads drive
  /// themselves; poll() just sleeps up to `timeout_ms` and returns how many
  /// frames they routed meanwhile.
  std::size_t poll(int timeout_ms);

  /// Number of shards (Options::workers, with 0 counted as one shard).
  std::uint32_t workers() const noexcept { return workers_; }
  bool threaded() const noexcept { return threaded_; }
  /// Which shard serves `assoc_id` (stable across rekeys by construction).
  std::uint32_t shard_for(std::uint32_t assoc_id) const noexcept {
    return shard_of(assoc_id, workers_);
  }

  /// Lock-free progress probe: shards' established counts via relaxed
  /// atomics. Safe from any thread at any time.
  std::size_t established_count() const noexcept;
  /// O(shards) inline; one snapshot round-trip in the threaded drive.
  std::size_t association_count();

  /// Merged node-level counters (+ per-assoc detail on request), plus the
  /// sum of ring overflows. The threaded drive round-trips a snapshot
  /// request through every shard's ring.
  NodeSnapshot snapshot(bool per_assoc = false);

  /// Live per-shard queue depths and overflow counters.
  std::vector<ShardStats> shard_stats() const;

  std::uint64_t now_us() const { return transport_->now_us(); }
  net::Transport& transport() noexcept { return *transport_; }

 private:
  struct Shard;

  Host& add_host(std::uint32_t assoc_id, net::PeerAddr peer, bool initiator,
                 const Config& config, const Host::Options& host_options);
  void ensure_running();
  /// Threaded drive: hands one inbound frame to its shard's in-ring.
  void route_frame(net::PeerAddr from, crypto::ByteView frame,
                   std::uint64_t recv_us);
  /// Inline drive: runs one inbound frame through its shard.
  void deliver_inline(net::PeerAddr from, crypto::ByteView frame);
  /// Applies one ring entry to its shard (shard-owner thread).
  void apply_slot(Shard& sh, const FrameSlot& slot, std::uint64_t now_us);
  /// Gathers one batch from `sh`'s out-ring into send_batch, releasing the
  /// accepted prefix. Returns frames sent.
  std::size_t flush_out_ring(Shard& sh);
  void schedule_shard_wakeup(Shard& sh, std::uint64_t at_us);
  void io_loop();
  void worker_loop(Shard& sh);

  // One shard's world: the NodeShard plus, in the threaded drive, its
  // rings and the snapshot mailbox. Workers touch only their own Shard; the
  // I/O thread touches only ring endpoints.
  struct Shard {
    std::unique_ptr<NodeShard> node;
    // Threaded drive only (null inline).
    std::unique_ptr<FrameRing> in;    // I/O thread -> worker (frames)
    std::unique_ptr<FrameRing> ctrl;  // supervisor -> worker (control ops)
    std::unique_ptr<FrameRing> out;   // worker -> I/O thread
    std::atomic<std::uint64_t> frames_routed{0};
    // Snapshot fragment. Threaded drive: the supervisor arms
    // `ready=false`, pushes a kSnapshot slot, spins; the worker fills
    // `frag` and releases `ready`. Inline: filled on the caller's thread.
    NodeSnapshot frag;
    bool frag_per_assoc = false;
    std::atomic<bool> frag_ready{true};
    // Inline drive: per-shard wakeup dedup.
    bool wakeup_pending = false;
    std::uint64_t wakeup_at = 0;
  };

  std::unique_ptr<net::Transport> transport_;
  Options options_;
  std::uint32_t workers_;
  bool threaded_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Supervisor-side bookkeeping (control path only, never per-frame).
  std::mutex control_mu_;
  std::set<std::uint32_t> known_assocs_;
  std::map<std::uint32_t, std::uint64_t> next_cookie_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread io_thread_;
  std::vector<std::thread> worker_threads_;
};

}  // namespace alpha::core
