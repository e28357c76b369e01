// One relay engine serving multiple independent associations: state must be
// fully isolated per association (chains, rounds, willingness).
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

struct TwoAssociations {
  TwoAssociations() : rng_a1(1), rng_b1(2), rng_a2(3), rng_b2(4) {
    RelayPipeline::Callbacks r_cb;
    r_cb.forward_batch = [this](const RelayPipeline::ForwardItem* items,
                                std::size_t count) {
      for (std::size_t i = 0; i < count; ++i) {
        // Route by association id: assoc 1 terminates at endpoints 0/1,
        // assoc 2 at endpoints 2/3.
        const auto hdr = wire::peek_header(items[i].frame);
        ASSERT_TRUE(hdr.has_value());
        const bool first = hdr->assoc_id == 1;
        const int dest = items[i].dir == Direction::kForward
                             ? (first ? 1 : 3)
                             : (first ? 0 : 2);
        bus.sender(dest)(Bytes(items[i].frame.begin(), items[i].frame.end()));
      }
    };
    r_cb.on_decision = [this](RelayDecision d, Direction, ByteView) {
      decisions.push_back(d);
    };
    relay.emplace(Config{}, RelayEngine::Options{}, std::move(r_cb),
                  /*batch_capacity=*/1);

    auto wire_host = [this](std::optional<Host>& host, std::uint32_t assoc,
                            bool initiator, HmacDrbg& rng, int relay_in,
                            std::vector<Bytes>* sink) {
      Host::Callbacks cb;
      cb.send = bus.sender(relay_in);
      if (sink != nullptr) {
        cb.on_message = [sink](ByteView payload) {
          sink->push_back(Bytes(payload.begin(), payload.end()));
        };
      }
      host.emplace(Config{}, assoc, initiator, rng, std::move(cb));
    };
    // Relay ingress: 10 = forward direction (from initiators),
    // 11 = reverse (from responders).
    wire_host(a1, 1, true, rng_a1, 10, nullptr);
    wire_host(b1, 1, false, rng_b1, 11, &at_b1);
    wire_host(a2, 2, true, rng_a2, 10, nullptr);
    wire_host(b2, 2, false, rng_b2, 11, &at_b2);

    bus.attach(0, [this](ByteView f) { a1->on_frame(f, 0); });
    bus.attach(1, [this](ByteView f) { b1->on_frame(f, 0); });
    bus.attach(2, [this](ByteView f) { a2->on_frame(f, 0); });
    bus.attach(3, [this](ByteView f) { b2->on_frame(f, 0); });
    bus.attach(10, [this](ByteView f) {
      relay->enqueue(Direction::kForward, f);
    });
    bus.attach(11, [this](ByteView f) {
      relay->enqueue(Direction::kReverse, f);
    });
  }

  HmacDrbg rng_a1, rng_b1, rng_a2, rng_b2;
  PacketBus bus;
  std::optional<RelayPipeline> relay;
  std::vector<RelayDecision> decisions;  // one per frame, arrival order
  std::optional<Host> a1, b1, a2, b2;
  std::vector<Bytes> at_b1, at_b2;
};

TEST(MultiAssocTest, TwoAssociationsShareOneRelay) {
  TwoAssociations t;
  t.a1->start();
  t.a2->start();
  t.bus.pump();
  ASSERT_TRUE(t.b1->established());
  ASSERT_TRUE(t.b2->established());

  t.a1->submit(msg("for association one"), 0);
  t.a2->submit(msg("for association two"), 0);
  t.bus.pump();

  ASSERT_EQ(t.at_b1.size(), 1u);
  ASSERT_EQ(t.at_b2.size(), 1u);
  EXPECT_EQ(t.at_b1[0], msg("for association one"));
  EXPECT_EQ(t.at_b2[0], msg("for association two"));
  EXPECT_EQ(t.relay->stats().dropped_invalid, 0u);
  EXPECT_EQ(t.relay->stats().messages_extracted, 2u);
}

TEST(MultiAssocTest, InterleavedTrafficStaysIsolated) {
  TwoAssociations t;
  t.a1->start();
  t.a2->start();
  t.bus.pump();

  for (int i = 0; i < 10; ++i) {
    t.a1->submit(msg("one-" + std::to_string(i)), 0);
    t.a2->submit(msg("two-" + std::to_string(i)), 0);
  }
  t.bus.pump();

  ASSERT_EQ(t.at_b1.size(), 10u);
  ASSERT_EQ(t.at_b2.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(t.at_b1[static_cast<std::size_t>(i)],
              msg("one-" + std::to_string(i)));
    EXPECT_EQ(t.at_b2[static_cast<std::size_t>(i)],
              msg("two-" + std::to_string(i)));
  }
}

TEST(MultiAssocTest, CrossAssociationReplayRejected) {
  TwoAssociations t;
  t.a1->start();
  t.a2->start();
  t.bus.pump();

  // Capture an S1 from association 1 and replay it stamped as assoc 2:
  // the chain element does not verify against assoc 2's anchors.
  Bytes s1_frame;
  t.bus.set_hook([&](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kS1 &&
        wire::peek_header(frame)->assoc_id == 1 && s1_frame.empty()) {
      s1_frame = frame;
    }
    return true;
  });
  t.a1->submit(msg("genuine"), 0);
  t.bus.pump();
  ASSERT_FALSE(s1_frame.empty());

  auto cross = std::get<wire::S1Packet>(*wire::decode(s1_frame));
  cross.hdr.assoc_id = 2;
  t.relay->enqueue(Direction::kForward, cross.encode());
  EXPECT_EQ(t.decisions.back(), RelayDecision::kDroppedInvalid);
}

TEST(MultiAssocTest, OneAssociationRefusingDoesNotAffectTheOther) {
  TwoAssociations t;
  t.a1->start();
  t.a2->start();
  t.bus.pump();

  t.b1->verifier()->set_accepting(false);  // B1 stops granting A1s
  t.a1->submit(msg("unwanted"), 0);
  t.a2->submit(msg("wanted"), 0);
  t.bus.pump();

  EXPECT_TRUE(t.at_b1.empty());
  ASSERT_EQ(t.at_b2.size(), 1u);
}

}  // namespace
}  // namespace alpha::core
