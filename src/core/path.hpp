// Protected path over the simulated network: the one builder of a
// simulated src -> relays -> dst topology (paper Fig. 1: signer s, relays
// r_i, verifier v).
//
// One SimTransport-backed ShardedNode per node of a linear net::Network
// path: the initiator at path.front(), the responder at path.back(), and a
// relay binding on every interior node between its two neighbours. The
// simulator drives every node inline, so frames a caller makes by driving
// an end Host directly reach the network synchronously, and each node's
// timer wheel drives retransmissions through the simulator's event queue.
//
// The builder owns only the wiring. Each role brings the ShardedNode
// options and callbacks (relays: the add_relay arguments) its caller would
// pass by hand; the builder adds the transports, the relay directions and
// the seed/trace-origin layout: the initiator draws chain material from
// `seed`, the responder from `seed + 1` (relays draw none), and every node
// stamps trace events with its simulator node id.
#pragma once

#include <memory>
#include <vector>

#include "core/sharded_node.hpp"
#include "net/network.hpp"

namespace alpha::core {

class ProtectedPath {
 public:
  /// One end of the path: its node runtime options and callbacks.
  struct End {
    ShardedNode::Options options;
    ShardedNode::Callbacks callbacks;
  };

  /// Every interior node: its runtime options and the ShardedNode::add_relay
  /// arguments it binds with (extractions reach set_extraction_handler).
  struct Relays {
    ShardedNode::Options options;
    std::vector<std::uint32_t> assoc_ids;
    std::size_t relay_batch = 32;
    RelayEngine::Options relay_options;
  };

  /// Wiring only, no association: one node runtime per entry of `path`
  /// (length >= 2), whose nodes and links must already exist in `network`.
  ProtectedPath(net::Network& network, std::vector<net::NodeId> path,
                std::uint64_t seed, End initiator, End responder,
                Relays relays);

  /// One pre-provisioned association `assoc_id` under `config` over
  /// one-shard nodes and flush-per-frame relays, recording what the ends
  /// deliver.
  ProtectedPath(net::Network& network, std::vector<net::NodeId> path,
                Config config, std::uint32_t assoc_id, std::uint64_t seed,
                Host::Options initiator_opts = Host::Options{},
                Host::Options responder_opts = Host::Options{},
                RelayEngine::Options relay_opts = RelayEngine::Options{});

  /// Sends the HS1 of the single association. Retransmission timers arm
  /// themselves on activity and disarm when idle.
  void start();

  /// Handler invoked whenever a relay securely extracts an authenticated
  /// payload from a forwarded S2 (§3.5 middlebox signaling):
  /// (relay index on the path, payload).
  using ExtractionHandler =
      std::function<void(std::size_t relay_index, crypto::ByteView payload)>;
  void set_extraction_handler(ExtractionHandler handler) {
    extraction_handler_ = std::move(handler);
  }

  /// The single association's end hosts (single-association constructor).
  Host& initiator() noexcept { return *initiator_; }
  Host& responder() noexcept { return *responder_; }
  std::size_t relay_count() const noexcept { return nodes_.size() - 2; }
  /// Counters of relay `i` (path node i + 1), read through a snapshot.
  RelayStats relay_stats(std::size_t i);

  /// Node runtimes along the path (index parallel to the node list).
  std::size_t node_count() const noexcept { return nodes_.size(); }
  ShardedNode& node(std::size_t i) { return *nodes_.at(i); }
  ShardedNode& initiator_node() { return *nodes_.front(); }
  ShardedNode& responder_node() { return *nodes_.back(); }
  /// The initiator's peer: the first hop toward the responder.
  net::NodeId next_hop() const noexcept { return path_[1]; }

  /// Messages delivered to the ends' applications (single-association
  /// constructor).
  const std::vector<crypto::Bytes>& delivered_to_responder() const noexcept {
    return at_responder_;
  }
  const std::vector<crypto::Bytes>& delivered_to_initiator() const noexcept {
    return at_initiator_;
  }
  const std::vector<std::pair<std::uint64_t, DeliveryStatus>>&
  initiator_deliveries() const noexcept {
    return initiator_deliveries_;
  }

 private:
  std::vector<net::NodeId> path_;
  std::uint32_t assoc_id_ = 0;
  std::vector<std::unique_ptr<ShardedNode>> nodes_;
  Host* initiator_ = nullptr;
  Host* responder_ = nullptr;
  std::vector<crypto::Bytes> at_initiator_;
  std::vector<crypto::Bytes> at_responder_;
  std::vector<std::pair<std::uint64_t, DeliveryStatus>> initiator_deliveries_;
  ExtractionHandler extraction_handler_;
};

}  // namespace alpha::core
