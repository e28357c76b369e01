#include "core/path.hpp"

#include <stdexcept>

namespace alpha::core {

namespace {
ShardedNode::Options one_shard(const Config& config) {
  ShardedNode::Options options;
  options.shard.config = config;
  return options;
}

/// An end of a single-association path: one shard under `config`, its
/// deliveries recorded into the path's vectors.
ProtectedPath::End recording_end(
    const Config& config, std::vector<crypto::Bytes>* messages,
    std::vector<std::pair<std::uint64_t, DeliveryStatus>>* deliveries) {
  ProtectedPath::End end;
  end.options = one_shard(config);
  end.callbacks.on_message = [messages](std::uint32_t,
                                        crypto::ByteView payload) {
    messages->emplace_back(payload.begin(), payload.end());
  };
  if (deliveries != nullptr) {
    end.callbacks.on_delivery = [deliveries](std::uint32_t,
                                             std::uint64_t cookie,
                                             DeliveryStatus status) {
      deliveries->emplace_back(cookie, status);
    };
  }
  return end;
}
}  // namespace

ProtectedPath::ProtectedPath(net::Network& network,
                             std::vector<net::NodeId> path, std::uint64_t seed,
                             End initiator, End responder, Relays relays)
    : path_(std::move(path)) {
  if (path_.size() < 2) {
    throw std::invalid_argument("ProtectedPath: need at least two nodes");
  }
  initiator.options.shard.seed = seed;
  responder.options.shard.seed = seed + 1;
  End interior{std::move(relays.options), {}};

  for (std::size_t i = 0; i < path_.size(); ++i) {
    const End& role = i == 0                  ? initiator
                      : i + 1 == path_.size() ? responder
                                              : interior;
    ShardedNode::Options opts = role.options;
    opts.shard.trace_origin = static_cast<std::uint8_t>(path_[i]);
    auto node = std::make_unique<ShardedNode>(
        std::make_unique<net::SimTransport>(network, path_[i]),
        std::move(opts), role.callbacks);
    if (&role == &interior) {
      const std::size_t relay_index = i - 1;
      auto on_extracted = [this, relay_index](std::uint32_t, std::uint32_t,
                                              std::uint16_t,
                                              crypto::ByteView payload) {
        if (extraction_handler_) extraction_handler_(relay_index, payload);
      };
      node->add_relay(path_[i - 1], path_[i + 1], relays.assoc_ids,
                      relays.relay_batch, relays.relay_options,
                      std::move(on_extracted));
    }
    nodes_.push_back(std::move(node));
  }
}

ProtectedPath::ProtectedPath(net::Network& network,
                             std::vector<net::NodeId> path, Config config,
                             std::uint32_t assoc_id, std::uint64_t seed,
                             Host::Options initiator_opts,
                             Host::Options responder_opts,
                             RelayEngine::Options relay_opts)
    : ProtectedPath(network, std::move(path), seed,
                    recording_end(config, &at_initiator_,
                                  &initiator_deliveries_),
                    recording_end(config, &at_responder_, nullptr),
                    Relays{one_shard(config), /*assoc_ids=*/{},
                           /*relay_batch=*/1, relay_opts}) {
  assoc_id_ = assoc_id;
  initiator_ = &initiator_node().add_initiator(assoc_id, next_hop(), config,
                                               initiator_opts);
  responder_ = &responder_node().add_responder(
      assoc_id, path_[path_.size() - 2], config, responder_opts);
}

void ProtectedPath::start() { initiator_node().start(assoc_id_); }

RelayStats ProtectedPath::relay_stats(std::size_t i) {
  if (i >= relay_count()) {
    throw std::out_of_range("ProtectedPath: no such relay");
  }
  return nodes_[i + 1]->snapshot().relay;
}

}  // namespace alpha::core
