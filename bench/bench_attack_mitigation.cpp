// §3.5 -- flood mitigation (qualitative claim, quantified).
//
// Paper: "unsolicited data cannot propagate far beyond its source in the
// network" -- the first ALPHA relay drops data that lacks an S1/A1 context.
// This harness floods a 6-hop path at increasing rates, with and without
// ALPHA-verifying relays, and reports how many attack bytes each hop had to
// carry. The shape to reproduce: without ALPHA the flood loads every link;
// with ALPHA only the entry link sees it.
#include <cstdio>

#include "bench_util.hpp"
#include "core/attackers.hpp"
#include "core/path.hpp"

using namespace alpha;
using namespace alpha::bench;

namespace {

struct FloodResult {
  std::uint64_t bytes_hop_by_hop[6] = {};
  std::uint64_t dropped_at_entry = 0;
  std::size_t legit_delivered = 0;
};

FloodResult run(bool alpha_relays, std::size_t flood_frames) {
  net::Simulator sim;
  net::Network network{sim, 5};
  const std::size_t hops = 6;
  for (net::NodeId id = 0; id <= hops; ++id) network.add_node(id);
  for (net::NodeId id = 0; id < hops; ++id) network.add_link(id, id + 1);

  core::Config config;
  std::vector<net::NodeId> nodes;
  for (net::NodeId id = 0; id <= hops; ++id) nodes.push_back(id);
  core::ProtectedPath path{network, nodes, config, 1, 21};

  if (!alpha_relays) {
    // Replace every relay with a blind forwarder (no verification).
    for (std::size_t i = 1; i < hops; ++i) {
      const net::NodeId self = static_cast<net::NodeId>(i);
      network.set_handler(self, [&network, self](net::NodeId from,
                                                 crypto::ByteView frame) {
        // Anything that does not come from the downstream neighbor (incl.
        // the attacker's side link) is forwarded downstream.
        const net::NodeId next = from == self + 1 ? self - 1 : self + 1;
        network.send(self, next,
                     crypto::Bytes(frame.begin(), frame.end()));
      });
    }
  }

  path.start();
  sim.run_until(net::kSecond);

  // Attacker attached to node 1 (first relay).
  network.add_node(99);
  network.add_link(99, 1);
  core::launch_s2_flood(network, 99, 1, 1, flood_frames, 900,
                        100 * net::kMicrosecond, 17);
  for (int i = 0; i < 10; ++i) {
    path.initiator().submit(crypto::Bytes(500, 0x31), sim.now());
  }
  sim.run_until(sim.now() + 30 * net::kSecond);

  FloodResult result;
  for (std::size_t i = 0; i < hops; ++i) {
    result.bytes_hop_by_hop[i] =
        network.link_stats(static_cast<net::NodeId>(i),
                           static_cast<net::NodeId>(i + 1))
            .bytes_delivered;
  }
  if (alpha_relays) {
    result.dropped_at_entry = path.relay_stats(0).dropped_unsolicited;
  }
  result.legit_delivered = path.delivered_to_responder().size();
  return result;
}

}  // namespace

int main() {
  header("§3.5: flood mitigation -- attack bytes carried per hop, with and "
         "without ALPHA relays");

  for (const std::size_t flood : {100u, 1000u, 5000u}) {
    const auto without = run(/*alpha_relays=*/false, flood);
    const auto with = run(/*alpha_relays=*/true, flood);
    std::printf("\nflood of %zu forged 900 B frames injected at hop 1:\n",
                flood);
    std::printf("  %-18s", "bytes on hop i->i+1:");
    for (int i = 0; i < 6; ++i) std::printf(" %9llu",
        static_cast<unsigned long long>(without.bytes_hop_by_hop[i]));
    std::printf("   (blind relays)\n");
    std::printf("  %-18s", "");
    for (int i = 0; i < 6; ++i) std::printf(" %9llu",
        static_cast<unsigned long long>(with.bytes_hop_by_hop[i]));
    std::printf("   (ALPHA relays)\n");
    std::printf("  ALPHA entry relay dropped %llu unsolicited frames; "
                "legitimate delivery %zu/10 vs %zu/10\n",
                static_cast<unsigned long long>(with.dropped_at_entry),
                with.legit_delivered, without.legit_delivered);
  }
  std::printf("\nShape: with ALPHA, links beyond the entry hop carry only "
              "protocol traffic regardless of flood size.\n");
  return 0;
}
