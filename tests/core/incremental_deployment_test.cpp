// Incremental deployment (§3.5): "even isolated ALPHA-enabled relays can
// perform per-packet authentication in the network" -- a single verifying
// relay among blind forwarders still stops forged traffic at its hop.
#include <gtest/gtest.h>

#include "core/attackers.hpp"
#include "core/path.hpp"

namespace alpha::core {
namespace {

using net::kSecond;

// Path 0-1-2-3-4 where only node 2 runs ALPHA; nodes 1 and 3 forward
// blindly.
struct MixedPath {
  MixedPath() : sim(), network(sim, 9) {
    for (net::NodeId id = 0; id <= 4; ++id) network.add_node(id);
    for (net::NodeId id = 0; id < 4; ++id) network.add_link(id, id + 1);
    path.emplace(network, std::vector<net::NodeId>{0, 1, 2, 3, 4}, Config{},
                 1u, 33u);
    // Replace relays at nodes 1 and 3 with blind forwarders (legacy
    // routers that do not speak ALPHA).
    for (const net::NodeId self : {net::NodeId{1}, net::NodeId{3}}) {
      network.set_handler(self, [this, self](net::NodeId from,
                                             crypto::ByteView frame) {
        const net::NodeId next = from == self + 1 ? self - 1 : self + 1;
        network.send(self, next, crypto::Bytes(frame.begin(), frame.end()));
      });
    }
  }

  net::Simulator sim;
  net::Network network;
  std::optional<ProtectedPath> path;
};

TEST(IncrementalDeploymentTest, EndToEndWorksThroughMixedPath) {
  MixedPath mp;
  mp.path->start();
  mp.sim.run_until(kSecond);
  ASSERT_TRUE(mp.path->initiator().established());

  mp.path->initiator().submit(crypto::Bytes(200, 0x77), mp.sim.now());
  mp.sim.run_until(2 * kSecond);
  ASSERT_EQ(mp.path->delivered_to_responder().size(), 1u);
  // The lone ALPHA relay (index 1 = node 2) verified the payload.
  EXPECT_EQ(mp.path->relay_stats(1).messages_extracted, 1u);
}

TEST(IncrementalDeploymentTest, LoneAlphaRelayStillStopsForgeries) {
  MixedPath mp;
  mp.path->start();
  mp.sim.run_until(kSecond);

  // Attacker injects next to the blind node 1: the forgery crosses node 1
  // unchecked but dies at the ALPHA relay on node 2.
  mp.network.add_node(77);
  mp.network.add_link(77, 1);
  launch_s2_flood(mp.network, 77, 1, 1, /*count=*/50, /*payload_size=*/500,
                  net::kMillisecond, 5);
  mp.sim.run_until(mp.sim.now() + 3 * kSecond);

  EXPECT_GT(mp.network.link_stats(1, 2).frames_sent, 50u);  // crossed hop 1
  EXPECT_EQ(mp.path->relay_stats(1).dropped_unsolicited, 50u);
  // Nothing forged crossed hop 2->3.
  EXPECT_TRUE(mp.path->delivered_to_responder().empty());
}

}  // namespace
}  // namespace alpha::core
