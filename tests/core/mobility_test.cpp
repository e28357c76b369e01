// Route-change recovery (the MANET/mobility scenario, §3.1.1 / §3.5).
//
// The paper fixes the relay set for the lifetime of a hash chain (bypass
// protection), so a route change strands the association: the new relay has
// never seen a handshake and drops everything as unsolicited. force_rekey()
// is the mobility hook -- a fresh handshake travels the new path, teaches
// the new relay the rotated anchors, and traffic resumes.
#include <gtest/gtest.h>

#include "core/host.hpp"
#include "core/relay_pipeline.hpp"
#include "test_bus.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using crypto::ByteView;
using crypto::HmacDrbg;
using testing::PacketBus;

Bytes msg(const std::string& s) { return Bytes(s.begin(), s.end()); }

struct MobileScenario {
  MobileScenario() : rng_a(1), rng_b(2) {
    // Two candidate relays; `via_r2` selects the active route.
    auto make_relay = [this](std::optional<RelayPipeline>& relay) {
      RelayPipeline::Callbacks cb;
      cb.forward_batch = [this](const RelayPipeline::ForwardItem* items,
                                std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
          bus.sender(items[i].dir == Direction::kForward ? 1 : 0)(
              Bytes(items[i].frame.begin(), items[i].frame.end()));
        }
      };
      relay.emplace(Config{}, RelayEngine::Options{}, std::move(cb),
                    /*batch_capacity=*/1);
    };
    make_relay(r1);
    make_relay(r2);

    Host::Callbacks a_cb;
    a_cb.send = bus.sender(10);  // routed below
    a_cb.on_delivery = [this](std::uint64_t, DeliveryStatus status) {
      (status == DeliveryStatus::kSent || status == DeliveryStatus::kAcked
           ? ++ok
           : ++failed);
    };
    a.emplace(Config{}, 5, true, rng_a, std::move(a_cb));

    Host::Callbacks b_cb;
    b_cb.send = bus.sender(11);
    b_cb.on_message = [this](ByteView payload) {
      at_b.push_back(Bytes(payload.begin(), payload.end()));
    };
    b.emplace(Config{}, 5, false, rng_b, std::move(b_cb));

    bus.attach(0, [this](ByteView f) { a->on_frame(f, now); });
    bus.attach(1, [this](ByteView f) { b->on_frame(f, now); });
    bus.attach(10, [this](ByteView f) {
      (via_r2 ? *r2 : *r1).enqueue(Direction::kForward, f);
    });
    bus.attach(11, [this](ByteView f) {
      (via_r2 ? *r2 : *r1).enqueue(Direction::kReverse, f);
    });
  }

  HmacDrbg rng_a, rng_b;
  PacketBus bus;
  std::optional<RelayPipeline> r1, r2;
  std::optional<Host> a, b;
  bool via_r2 = false;
  std::uint64_t now = 0;
  std::vector<Bytes> at_b;
  int ok = 0, failed = 0;
};

TEST(MobilityTest, RouteChangeStrandsTrafficWithoutRekey) {
  MobileScenario sc;
  sc.a->start();
  sc.bus.pump();
  sc.a->submit(msg("via r1"), 0);
  sc.bus.pump();
  ASSERT_EQ(sc.at_b.size(), 1u);

  // The path moves to r2; nobody rekeys.
  sc.via_r2 = true;
  sc.a->submit(msg("via r2, stale chains"), 0);
  sc.bus.pump();

  EXPECT_EQ(sc.at_b.size(), 1u);  // nothing arrives
  EXPECT_GT(sc.r2->stats().dropped_unsolicited, 0u);  // r2 has no context
}

TEST(MobilityTest, ForceRekeyRestoresDeliveryOnNewPath) {
  MobileScenario sc;
  sc.a->start();
  sc.bus.pump();
  sc.a->submit(msg("via r1"), 0);
  sc.bus.pump();
  ASSERT_EQ(sc.at_b.size(), 1u);

  // Route change + explicit rekey: the new HS1 travels through r2.
  sc.via_r2 = true;
  ASSERT_TRUE(sc.a->force_rekey(sc.now));
  sc.bus.pump();
  EXPECT_FALSE(sc.a->rekey_pending());  // HS2 returned over the new path

  sc.a->submit(msg("via r2, fresh chains"), 0);
  sc.bus.pump();
  ASSERT_EQ(sc.at_b.size(), 2u);
  EXPECT_EQ(sc.at_b[1], msg("via r2, fresh chains"));
  EXPECT_EQ(sc.r2->stats().messages_extracted, 1u);  // r2 now verifies
  EXPECT_EQ(sc.failed, 0);
}

TEST(MobilityTest, MessagesSubmittedDuringHandoverAreNotLost) {
  MobileScenario sc;
  sc.a->start();
  sc.bus.pump();

  sc.via_r2 = true;
  // Queue traffic while the rekey handshake is still in flight: it must be
  // held back (signer paused) and flushed after re-establishment.
  ASSERT_TRUE(sc.a->force_rekey(sc.now));
  sc.a->submit(msg("queued during handover 1"), sc.now);
  sc.a->submit(msg("queued during handover 2"), sc.now);
  sc.bus.pump();

  ASSERT_EQ(sc.at_b.size(), 2u);
  EXPECT_EQ(sc.at_b[0], msg("queued during handover 1"));
  EXPECT_EQ(sc.at_b[1], msg("queued during handover 2"));
}

TEST(MobilityTest, ForceRekeyRefusedWhenNotApplicable) {
  MobileScenario sc;
  EXPECT_FALSE(sc.a->force_rekey(0));  // not established yet
  EXPECT_FALSE(sc.b->force_rekey(0));  // responder never initiates
  sc.a->start();
  sc.bus.pump();
  EXPECT_TRUE(sc.a->force_rekey(0));
  EXPECT_FALSE(sc.a->force_rekey(0));  // already pending
}

}  // namespace
}  // namespace alpha::core
