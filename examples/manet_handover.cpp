// MANET route handover (the §1 mobile multi-hop motivation).
//
// A mobile node talks to a gateway through relay r1. The route then breaks
// (mobility) and traffic must flow through r2 -- a relay that has never seen
// this association's handshake and therefore drops everything as
// unsolicited (which is exactly what hop-by-hop authentication is for).
// force_rekey() re-bootstraps the association over the new path: fresh
// chains, fresh anchors, and r2 starts verifying. No message is lost.
//
//   $ ./manet_handover
#include <cstdio>

#include "core/host.hpp"
#include "core/relay_pipeline.hpp"
#include "net/network.hpp"

using namespace alpha;

namespace {
crypto::Bytes msg(const std::string& s) {
  return crypto::Bytes(s.begin(), s.end());
}
}  // namespace

int main() {
  std::printf("== MANET handover: route change + rekey ==\n");

  net::Simulator sim;
  net::Network network{sim, 21};
  // mobile(0) -- r1(1) -- gw(3)   and the alternative  mobile -- r2(2) -- gw
  for (net::NodeId id = 0; id <= 3; ++id) network.add_node(id);
  network.add_link(0, 1);
  network.add_link(0, 2);
  network.add_link(1, 3);
  network.add_link(2, 3);

  bool via_r2 = false;  // current route selector

  core::Config config;
  config.reliable = true;
  config.rto_us = 100 * net::kMillisecond;

  // Relays: each frame is verified and forwarded as it arrives (batch 1).
  auto make_relay = [&](net::NodeId self,
                        std::optional<core::RelayPipeline>& r) {
    core::RelayPipeline::Callbacks cb;
    cb.forward_batch = [&network, self](
                           const core::RelayPipeline::ForwardItem* items,
                           std::size_t count) {
      for (std::size_t i = 0; i < count; ++i) {
        network.send(self,
                     items[i].dir == core::Direction::kForward ? 3 : 0,
                     crypto::Bytes(items[i].frame.begin(),
                                   items[i].frame.end()));
      }
    };
    r.emplace(config, core::RelayEngine::Options{}, std::move(cb),
              /*batch_capacity=*/1);
    network.set_handler(self, [&r](net::NodeId from, crypto::ByteView f) {
      r->enqueue(from == 0 ? core::Direction::kForward
                           : core::Direction::kReverse,
                 f);
    });
  };
  std::optional<core::RelayPipeline> r1, r2;
  make_relay(1, r1);
  make_relay(2, r2);

  // Hosts.
  crypto::HmacDrbg rng_a{1}, rng_b{2};
  std::vector<crypto::Bytes> at_gw;
  int acked = 0;
  core::Host::Callbacks a_cb;
  a_cb.send = [&](crypto::Bytes frame) {
    network.send(0, via_r2 ? 2 : 1, std::move(frame));
  };
  a_cb.on_delivery = [&](std::uint64_t, core::DeliveryStatus st) {
    if (st == core::DeliveryStatus::kAcked) ++acked;
  };
  core::Host mobile{config, 1, true, rng_a, std::move(a_cb)};
  core::Host::Callbacks b_cb;
  b_cb.send = [&](crypto::Bytes frame) {
    network.send(3, via_r2 ? 2 : 1, std::move(frame));
  };
  b_cb.on_message = [&](crypto::ByteView payload) {
    at_gw.emplace_back(payload.begin(), payload.end());
  };
  core::Host gateway{config, 1, false, rng_b, std::move(b_cb)};
  network.set_handler(0, [&](net::NodeId, crypto::ByteView f) {
    mobile.on_frame(f, sim.now());
  });
  network.set_handler(3, [&](net::NodeId, crypto::ByteView f) {
    gateway.on_frame(f, sim.now());
  });

  // Retransmission ticks (refers to the named function, no self-capture).
  std::function<void()> tick = [&] {
    mobile.on_tick(sim.now());
    gateway.on_tick(sim.now());
    if (sim.now() < 120 * net::kSecond) sim.schedule_in(50'000, tick);
  };
  sim.schedule_in(50'000, tick);

  mobile.start();
  sim.run_until(net::kSecond);
  std::printf("bootstrap via r1: %s\n",
              mobile.established() ? "established" : "FAILED");

  mobile.submit(msg("location update #1 (via r1)"), sim.now());
  sim.run_until(2 * net::kSecond);
  std::printf("delivered via r1: %zu, r1 verified %llu payloads\n",
              at_gw.size(),
              static_cast<unsigned long long>(r1->stats().messages_extracted));

  std::printf("\n-- route breaks; traffic now flows via r2 --\n");
  via_r2 = true;
  mobile.force_rekey(sim.now());  // the mobility hook
  sim.run_until(3 * net::kSecond);
  std::printf("rekey over the new path: %s\n",
              mobile.rekey_pending() ? "still pending" : "complete");

  mobile.submit(msg("location update #2 (via r2)"), sim.now());
  sim.run_until(5 * net::kSecond);

  std::printf("delivered total: %zu/2, acked %d/2\n", at_gw.size(), acked);
  std::printf("r2 verified %llu payloads after the handover "
              "(and had dropped %llu frames before it)\n",
              static_cast<unsigned long long>(r2->stats().messages_extracted),
              static_cast<unsigned long long>(
                  r2->stats().dropped_unsolicited));
  return at_gw.size() == 2 && acked == 2 ? 0 : 1;
}
