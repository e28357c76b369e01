// Multi-association node runtime (single-threaded poll-loop shape).
//
// The paper's end-hosts and relays each serve one security association;
// core::Host and core::RelayPipeline serve them. AlphaNode is the scaling
// layer above them: one runtime object that owns many engines, multiplexes
// every inbound frame by a bounds-checked association-id peek (no full
// decode on the hot path), spawns responder associations on demand when an
// unknown HS1 arrives, and drives retransmissions through a hashed timer
// wheel so on_tick fires only for associations that actually have a pending
// deadline -- not as an O(all-assocs) sweep per tick.
//
// Since the sharded-runtime refactor, all of that logic lives in
// core::NodeShard (core/shard.hpp); AlphaNode is the one-shard shape of it,
// bound directly to a Transport: frames arrive through the transport's
// receive callback, frames leave through transport->send, and timer wakeups
// ride the transport's scheduler. The multi-core shape of the same shard is
// core::ShardedNode (core/sharded_node.hpp).
//
// The node is transport-agnostic by construction: it talks to the world
// exclusively through net::Transport, so the same code serves the
// deterministic simulator (SimTransport) and real UDP sockets
// (UdpTransport). Per-association and node-level statistics aggregate into
// one snapshot struct for tools and benches.
//
// Roles one node can combine:
//  * end-host associations -- add_initiator() / add_responder(), or
//    accepted automatically from inbound handshakes (Options::accept_inbound)
//  * relay bindings -- add_relay(): a RelayPipeline verifying-and-forwarding
//    between two peers, direction derived from the source address. The
//    node has no end-of-drain hook, so its bindings flush every frame
//    (batch 1): each frame is verified and forwarded inside the transport's
//    receive callback.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/shard.hpp"
#include "net/transport.hpp"

namespace alpha::core {

class AlphaNode {
 public:
  using Options = NodeShard::Options;
  using Callbacks = NodeShard::Callbacks;
  using ExtractFn = NodeShard::ExtractFn;

  /// Takes ownership of the transport and installs itself as its receiver.
  AlphaNode(std::unique_ptr<net::Transport> transport, Options options,
            Callbacks callbacks = {});

  AlphaNode(const AlphaNode&) = delete;
  AlphaNode& operator=(const AlphaNode&) = delete;

  /// Adds an initiator-side association toward `peer`.
  Host& add_initiator(std::uint32_t assoc_id, net::PeerAddr peer) {
    return shard_.add_host(assoc_id, peer, /*initiator=*/true,
                           options_.config, Host::Options{});
  }
  Host& add_initiator(std::uint32_t assoc_id, net::PeerAddr peer,
                      const Config& config,
                      const Host::Options& host_options = {}) {
    return shard_.add_host(assoc_id, peer, /*initiator=*/true, config,
                           host_options);
  }

  /// Adds a pre-provisioned responder-side association toward `peer`.
  Host& add_responder(std::uint32_t assoc_id, net::PeerAddr peer) {
    return shard_.add_host(assoc_id, peer, /*initiator=*/false,
                           options_.config, Host::Options{});
  }
  Host& add_responder(std::uint32_t assoc_id, net::PeerAddr peer,
                      const Config& config,
                      const Host::Options& host_options = {}) {
    return shard_.add_host(assoc_id, peer, /*initiator=*/false, config,
                           host_options);
  }

  /// Adds a relay binding verifying-and-forwarding between `upstream`
  /// (toward the initiator) and `downstream` (toward the responder).
  /// Frames from `downstream` travel kReverse; anything else -- including
  /// unknown injectors -- travels kForward, so floods die here exactly as
  /// on a single-association relay (§3.5). `assoc_ids` optionally pins
  /// specific associations to this binding when one node relays for
  /// several disjoint paths.
  RelayPipeline& add_relay(net::PeerAddr upstream, net::PeerAddr downstream,
                           RelayEngine::Options options = {},
                           ExtractFn on_extracted = nullptr,
                           std::vector<std::uint32_t> assoc_ids = {}) {
    return shard_.add_relay(upstream, downstream, /*batch=*/1, options,
                            std::move(on_extracted), std::move(assoc_ids));
  }

  /// Initiator bootstrap: sends the HS1 and arms the retransmission timer.
  void start(std::uint32_t assoc_id) {
    shard_.start(assoc_id, transport_->now_us());
  }

  /// Submits one message on an association (timestamped from the
  /// transport clock). Returns the delivery cookie.
  std::uint64_t submit(std::uint32_t assoc_id, crypto::Bytes payload) {
    return shard_.submit(assoc_id, std::move(payload), transport_->now_us());
  }

  /// Drives the transport and the timer wheel for up to `timeout_ms`.
  /// Returns frames delivered. Simulator-backed nodes may instead be driven
  /// by Simulator::run_until directly -- timers fire from the event queue.
  std::size_t poll(int timeout_ms) { return transport_->poll(timeout_ms); }

  Host* host(std::uint32_t assoc_id) noexcept {
    return shard_.host(assoc_id);
  }
  const Host* host(std::uint32_t assoc_id) const noexcept {
    return shard_.host(assoc_id);
  }
  std::size_t association_count() const noexcept {
    return shard_.association_count();
  }
  std::size_t established_count() const noexcept {
    return shard_.established_count();
  }

  std::size_t relay_count() const noexcept { return shard_.relay_count(); }
  RelayPipeline& relay(std::size_t i) { return shard_.relay(i); }

  std::uint64_t now_us() const { return transport_->now_us(); }
  net::Transport& transport() noexcept { return *transport_; }

  /// Aggregated counters; `per_assoc` additionally fills one AssocSnapshot
  /// per association (O(associations) -- off the hot path by design).
  NodeSnapshot snapshot(bool per_assoc = false) const {
    NodeSnapshot s;
    shard_.snapshot_into(s, per_assoc);
    return s;
  }

 private:
  void schedule_wakeup(std::uint64_t at_us);
  void on_wakeup();

  std::unique_ptr<net::Transport> transport_;
  Options options_;
  NodeShard shard_;
  bool wakeup_pending_ = false;
  std::uint64_t wakeup_at_ = 0;
};

}  // namespace alpha::core
