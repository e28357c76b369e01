// Secure middlebox signaling (§3.5 / §1: "rate and resource allocation
// within the network controlled by end-hosts but enforced by intermediate
// nodes").
//
// The end hosts run an ALPHA-protected control channel. The relay in the
// middle extracts *authenticated* control messages ("rate=<kbps>") and
// adjusts its enforcement state. A forged control message injected next to
// the relay never reaches the enforcement logic: the relay only extracts
// payloads that verified against the signer's pre-signature.
//
//   $ ./middlebox_qos
#include <cstdio>
#include <string>

#include "core/attackers.hpp"
#include "core/path.hpp"

using namespace alpha;

namespace {

crypto::Bytes msg(const std::string& s) {
  return crypto::Bytes(s.begin(), s.end());
}

}  // namespace

int main() {
  std::printf("== authenticated QoS signaling to an on-path middlebox ==\n");

  net::Simulator sim;
  net::Network network{sim, 4};
  for (net::NodeId id = 0; id <= 2; ++id) network.add_node(id);
  network.add_link(0, 1);
  network.add_link(1, 2);

  core::Config config;
  config.reliable = true;  // signaling wants confirmation

  core::ProtectedPath path{network, {0, 1, 2}, config, 1, 31};

  // Middlebox enforcement state, driven only by authenticated extractions.
  int rate_limit_kbps = 64;
  path.set_extraction_handler([&](std::size_t relay, crypto::ByteView payload) {
    const std::string cmd(payload.begin(), payload.end());
    if (cmd.rfind("rate=", 0) == 0) {
      rate_limit_kbps = std::stoi(cmd.substr(5));
      std::printf("middlebox (relay %zu): authenticated \"%s\" -> limit now "
                  "%d kbps\n",
                  relay, cmd.c_str(), rate_limit_kbps);
    }
  });

  path.start();
  sim.run_until(net::kSecond);
  std::printf("control channel established: %s\n",
              path.initiator().established() ? "yes" : "no");

  // Genuine signaling from the end host.
  path.initiator().submit(msg("rate=512"), sim.now());
  sim.run_until(2 * net::kSecond);

  // An attacker adjacent to the middlebox injects a forged rate command.
  network.add_node(66);
  network.add_link(66, 1);
  wire::S2Packet forged;
  forged.hdr = {1, 40};
  forged.mode = wire::Mode::kBase;
  forged.chain_index = 2;
  forged.disclosed_element =
      crypto::Digest{crypto::ByteView{crypto::Bytes(20, 0x13)}};
  forged.payload = msg("rate=999999");
  network.send(66, 1, forged.encode());
  sim.run_until(sim.now() + net::kSecond);
  std::printf("attacker injected \"rate=999999\": limit still %d kbps "
              "(forged frame dropped: %s)\n",
              rate_limit_kbps,
              path.relay_stats(0).dropped_unsolicited +
                          path.relay_stats(0).dropped_invalid >
                      0
                  ? "yes"
                  : "no");

  // A second genuine update.
  path.initiator().submit(msg("rate=128"), sim.now());
  sim.run_until(sim.now() + 2 * net::kSecond);

  std::printf("\nfinal middlebox rate limit: %d kbps (expected 128)\n",
              rate_limit_kbps);
  std::printf("relay: %llu authenticated extractions, %llu frames dropped\n",
              static_cast<unsigned long long>(
                  path.relay_stats(0).messages_extracted),
              static_cast<unsigned long long>(
                  path.relay_stats(0).dropped_invalid +
                  path.relay_stats(0).dropped_unsolicited));
  return rate_limit_kbps == 128 ? 0 : 1;
}
