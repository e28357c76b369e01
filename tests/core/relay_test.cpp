// Relay tests: hop-by-hop verification, flood filtering, extraction.
//
// Every case runs twice: against the reference RelayEngine and against the
// runtime's RelayPipeline flushing every frame (relay_under_test.hpp).
// Failures name the engine in their trace.
#include <gtest/gtest.h>

#include "core/host.hpp"
#include "relay_under_test.hpp"
#include "test_bus.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using crypto::ByteView;
using crypto::HmacDrbg;
using testing::PacketBus;
using testing::RelayKind;
using testing::RelayUnderTest;

Bytes msg(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// Runs `body(kind)` once per relay engine.
template <typename Body>
void for_each_relay(Body body) {
  for (const RelayKind kind : testing::kRelayKinds) {
    SCOPED_TRACE(testing::relay_kind_name(kind));
    body(kind);
  }
}

// Endpoints on the bus: 0 = host A, 1 = host B,
// 10 = relay ingress from A (forward), 11 = relay ingress from B (reverse).
struct RelayedPair {
  RelayedPair(RelayKind kind, Config config,
              RelayEngine::Options relay_opts = {})
      : rng_a(1),
        rng_b(2),
        relay(
            kind, config, relay_opts,
            [this](Direction dir, ByteView frame) {
              bus.sender(dir == Direction::kForward ? 1 : 0)(
                  Bytes(frame.begin(), frame.end()));
            },
            [this](std::uint32_t, std::uint32_t, std::uint16_t,
                   ByteView payload) {
              extracted.push_back(Bytes(payload.begin(), payload.end()));
            }) {
    Host::Callbacks a_cb;
    a_cb.send = bus.sender(10);
    a_cb.on_message = [this](ByteView payload) {
      at_a.push_back(Bytes(payload.begin(), payload.end()));
    };
    a_cb.on_delivery = [this](std::uint64_t cookie, DeliveryStatus status) {
      a_deliveries.emplace_back(cookie, status);
    };
    a.emplace(config, /*assoc_id=*/3, true, rng_a, std::move(a_cb));

    Host::Callbacks b_cb;
    b_cb.send = bus.sender(11);
    b_cb.on_message = [this](ByteView payload) {
      at_b.push_back(Bytes(payload.begin(), payload.end()));
    };
    b.emplace(config, /*assoc_id=*/3, false, rng_b, std::move(b_cb));

    bus.attach(0, [this](ByteView frame) { a->on_frame(frame, now); });
    bus.attach(1, [this](ByteView frame) { b->on_frame(frame, now); });
    bus.attach(10, [this](ByteView frame) {
      relay.on_frame(Direction::kForward, frame);
    });
    bus.attach(11, [this](ByteView frame) {
      relay.on_frame(Direction::kReverse, frame);
    });
  }

  void establish() {
    a->start();
    bus.pump();
    ASSERT_TRUE(a->established());
    ASSERT_TRUE(b->established());
  }

  HmacDrbg rng_a, rng_b;
  PacketBus bus;
  RelayUnderTest relay;
  std::optional<Host> a, b;
  std::uint64_t now = 0;
  std::vector<Bytes> at_a, at_b, extracted;
  std::vector<std::pair<std::uint64_t, DeliveryStatus>> a_deliveries;
};

TEST(RelayTest, ForwardsHandshakeAndLearnsAnchors) {
  for_each_relay([](RelayKind kind) {
    RelayedPair pair{kind, Config{}};
    pair.establish();
    EXPECT_GE(pair.relay.stats().forwarded, 2u);  // HS1 + HS2
  });
}

TEST(RelayTest, EndToEndThroughRelay) {
  for_each_relay([](RelayKind kind) {
    RelayedPair pair{kind, Config{}};
    pair.establish();
    pair.a->submit(msg("via relay"), 0);
    pair.bus.pump();
    ASSERT_EQ(pair.at_b.size(), 1u);
    EXPECT_EQ(pair.at_b[0], msg("via relay"));
    EXPECT_EQ(pair.relay.stats().dropped_invalid, 0u);
  });
}

TEST(RelayTest, ExtractsAuthenticatedPayloads) {
  // §3.5: relays can securely extract signaling data from S2 packets.
  for_each_relay([](RelayKind kind) {
    RelayedPair pair{kind, Config{}};
    pair.establish();
    pair.a->submit(msg("location update: cell 12"), 0);
    pair.bus.pump();
    ASSERT_EQ(pair.extracted.size(), 1u);
    EXPECT_EQ(pair.extracted[0], msg("location update: cell 12"));
    EXPECT_EQ(pair.relay.stats().messages_extracted, 1u);
  });
}

TEST(RelayTest, BothDirectionsVerified) {
  for_each_relay([](RelayKind kind) {
    RelayedPair pair{kind, Config{}};
    pair.establish();
    pair.a->submit(msg("forward"), 0);
    pair.b->submit(msg("reverse"), 0);
    pair.bus.pump();
    EXPECT_EQ(pair.at_b.size(), 1u);
    EXPECT_EQ(pair.at_a.size(), 1u);
    EXPECT_EQ(pair.extracted.size(), 2u);
  });
}

class RelayModeTest
    : public ::testing::TestWithParam<std::tuple<wire::Mode, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    Modes, RelayModeTest,
    ::testing::Combine(::testing::Values(wire::Mode::kBase,
                                         wire::Mode::kCumulative,
                                         wire::Mode::kMerkle),
                       ::testing::Bool()));

TEST_P(RelayModeTest, BatchTraffic) {
  const auto [mode, reliable] = GetParam();
  Config config;
  config.mode = mode;
  config.reliable = reliable;
  config.batch_size = 4;
  for_each_relay([&](RelayKind kind) {
    RelayedPair pair{kind, config};
    pair.establish();
    for (int i = 0; i < 8; ++i) {
      pair.a->submit(msg("m" + std::to_string(i)), 0);
    }
    pair.bus.pump();
    EXPECT_EQ(pair.at_b.size(), 8u);
    EXPECT_EQ(pair.extracted.size(), 8u);
    EXPECT_EQ(pair.relay.stats().dropped_invalid, 0u);
    if (reliable) {
      EXPECT_EQ(pair.relay.stats().acks_verified, 8u);
    }
  });
}

TEST(RelayTest, TamperedS2DroppedAtRelay) {
  // A malicious upstream modifies the payload; the relay must drop it so it
  // never reaches (or even travels toward) the verifier.
  for_each_relay([](RelayKind kind) {
    RelayedPair pair{kind, Config{}};
    pair.establish();

    pair.bus.set_hook([](Bytes& frame) {
      if (wire::peek_type(frame) == wire::PacketType::kS2) {
        frame[frame.size() - 1] ^= 0x01;
      }
      return true;
    });
    pair.a->submit(msg("intact?"), 0);
    pair.bus.pump();

    EXPECT_TRUE(pair.at_b.empty());
    EXPECT_EQ(pair.relay.stats().dropped_invalid, 1u);
    EXPECT_TRUE(pair.extracted.empty());
  });
}

TEST(RelayTest, InjectedS2WithoutContextDropped) {
  for_each_relay([](RelayKind kind) {
    RelayedPair pair{kind, Config{}};
    pair.establish();

    wire::S2Packet forged;
    forged.hdr = {3, 77};
    forged.mode = wire::Mode::kBase;
    forged.chain_index = 500;
    forged.disclosed_element = crypto::Digest{ByteView{Bytes(20, 0x66)}};
    forged.payload = msg("flood data");
    EXPECT_EQ(pair.relay.on_frame(Direction::kForward, forged.encode()),
              RelayDecision::kDroppedUnsolicited);
    pair.bus.pump();
    EXPECT_TRUE(pair.at_b.empty());
  });
}

TEST(RelayTest, S2BeforeA1IsUnsolicited) {
  // Flood mitigation: until the verifier grants an A1, data is not relayed.
  for_each_relay([](RelayKind kind) {
    RelayedPair pair{kind, Config{}};
    pair.establish();

    // Capture the S1 and drop the A1 so no willingness signal exists.
    pair.bus.set_hook([](Bytes& frame) {
      return wire::peek_type(frame) != wire::PacketType::kA1;
    });
    pair.a->submit(msg("eager"), 0);
    pair.bus.pump();

    // Signer never got A1, so it never sent S2. Now inject an S2-like frame
    // reusing the genuine chain element: relay must refuse for lack of A1.
    wire::S2Packet s2;
    s2.hdr = {3, 1};
    s2.mode = wire::Mode::kBase;
    s2.chain_index = 1;
    s2.disclosed_element = crypto::Digest{ByteView{Bytes(20, 0x11)}};
    s2.payload = msg("pushy");
    EXPECT_EQ(pair.relay.on_frame(Direction::kForward, s2.encode()),
              RelayDecision::kDroppedUnsolicited);
  });
}

TEST(RelayTest, MalformedFramesDropped) {
  for_each_relay([](RelayKind kind) {
    RelayedPair pair{kind, Config{}};
    const Bytes junk{0x01, 0x02, 0x03};
    EXPECT_EQ(pair.relay.on_frame(Direction::kForward, junk),
              RelayDecision::kDroppedMalformed);
  });
}

TEST(RelayTest, UnknownAssociationPolicy) {
  Config config;
  wire::S1Packet s1;
  s1.hdr = {42, 1};
  s1.mode = wire::Mode::kBase;
  s1.chain_index = 3;
  s1.chain_element = crypto::Digest{ByteView{Bytes(20, 1)}};
  s1.macs = {crypto::Digest{ByteView{Bytes(20, 2)}}};
  for_each_relay([&](RelayKind kind) {
    // Strict relay drops traffic with no observed handshake.
    RelayedPair strict{kind, config};
    EXPECT_EQ(strict.relay.on_frame(Direction::kForward, s1.encode()),
              RelayDecision::kDroppedUnsolicited);

    // Incremental-deployment relay forwards what it cannot verify (§3.5).
    RelayEngine::Options lax;
    lax.require_handshake = false;
    RelayedPair open{kind, config, lax};
    EXPECT_EQ(open.relay.on_frame(Direction::kForward, s1.encode()),
              RelayDecision::kForwarded);
  });
}

TEST(RelayTest, ProtectedHandshakeVerifiedWhenEnabled) {
  HmacDrbg keyrng{0xabc};
  const Identity id = Identity::make_rsa(keyrng, 512);

  Config config;
  RelayEngine::Options opts;
  opts.verify_handshake_signatures = true;

  // Build a genuine protected handshake via a host.
  HmacDrbg rng{5};
  Host::Callbacks host_cb;
  std::vector<Bytes> frames;
  host_cb.send = [&](Bytes frame) { frames.push_back(std::move(frame)); };
  Host::Options host_opts;
  host_opts.identity = &id;
  Host host{config, 9, true, rng, std::move(host_cb), host_opts};
  host.start();
  ASSERT_EQ(frames.size(), 1u);

  for_each_relay([&](RelayKind kind) {
    std::size_t forwarded = 0;
    RelayUnderTest relay{kind, config, opts,
                         [&](Direction, ByteView) { ++forwarded; }};

    EXPECT_EQ(relay.on_frame(Direction::kForward, frames[0]),
              RelayDecision::kForwarded);
    EXPECT_EQ(forwarded, 1u);

    // Raw tampering dies at the frame checksum, before any crypto runs.
    Bytes tampered = frames[0];
    tampered[20] ^= 1;
    EXPECT_EQ(relay.on_frame(Direction::kForward, tampered),
              RelayDecision::kDroppedMalformed);

    // A resealed tamper (valid CRC, forged content) must still be caught --
    // by the handshake signature this time.
    const std::size_t body_len = tampered.size() - wire::kFrameChecksumSize;
    const std::uint32_t crc =
        wire::frame_checksum(crypto::ByteView{tampered.data(), body_len});
    for (std::size_t i = 0; i < wire::kFrameChecksumSize; ++i) {
      tampered[body_len + i] = static_cast<std::uint8_t>(crc >> (24 - 8 * i));
    }
    EXPECT_EQ(relay.on_frame(Direction::kForward, tampered),
              RelayDecision::kDroppedInvalid);
    EXPECT_EQ(forwarded, 1u);
  });
}

TEST(RelayTest, RelayBuffersStayTiny) {
  // Table 2 relay column: n*h per round, independent of payload size.
  Config config;
  config.mode = wire::Mode::kCumulative;
  config.batch_size = 10;
  for_each_relay([&](RelayKind kind) {
    RelayedPair pair{kind, config};
    pair.establish();
    // Hold A1 back so the round stays buffered at the relay.
    pair.bus.set_hook([](Bytes& frame) {
      return wire::peek_type(frame) != wire::PacketType::kA1;
    });
    for (int i = 0; i < 10; ++i) {
      pair.a->submit(Bytes(1000, 0x77), 0);  // 1 kB messages
    }
    pair.bus.pump();
    // 10 MACs of 20 bytes buffered, not 10 kB of payload.
    EXPECT_EQ(pair.relay.buffered_bytes(), 200u);
  });
}

TEST(RelayTest, ChainedRelaysAllVerify) {
  // Two relays in sequence: s - r1 - r2 - v.
  Config config;
  for_each_relay([&](RelayKind kind) {
    HmacDrbg rng_a{1}, rng_b{2};
    PacketBus bus;
    std::optional<Host> a, b;
    std::vector<Bytes> at_b;

    RelayUnderTest r1{kind, config, {}, [&](Direction dir, ByteView frame) {
                        // forward -> toward r2 (20); reverse -> toward A (0)
                        bus.sender(dir == Direction::kForward ? 20 : 0)(
                            Bytes(frame.begin(), frame.end()));
                      }};
    RelayUnderTest r2{kind, config, {}, [&](Direction dir, ByteView frame) {
                        bus.sender(dir == Direction::kForward ? 1 : 21)(
                            Bytes(frame.begin(), frame.end()));
                      }};

    Host::Callbacks a_cb;
    a_cb.send = bus.sender(10);
    a.emplace(config, 5, true, rng_a, std::move(a_cb));
    Host::Callbacks b_cb;
    b_cb.send = bus.sender(11);
    b_cb.on_message = [&](ByteView payload) {
      at_b.push_back(Bytes(payload.begin(), payload.end()));
    };
    b.emplace(config, 5, false, rng_b, std::move(b_cb));

    bus.attach(0, [&](ByteView f) { a->on_frame(f, 0); });
    bus.attach(1, [&](ByteView f) { b->on_frame(f, 0); });
    bus.attach(10, [&](ByteView f) { r1.on_frame(Direction::kForward, f); });
    bus.attach(20, [&](ByteView f) { r2.on_frame(Direction::kForward, f); });
    bus.attach(11, [&](ByteView f) { r2.on_frame(Direction::kReverse, f); });
    bus.attach(21, [&](ByteView f) { r1.on_frame(Direction::kReverse, f); });

    a->start();
    bus.pump();
    ASSERT_TRUE(b->established());
    a->submit(msg("two hops"), 0);
    bus.pump();
    ASSERT_EQ(at_b.size(), 1u);
    EXPECT_EQ(r1.stats().dropped_invalid, 0u);
    EXPECT_EQ(r2.stats().dropped_invalid, 0u);
    EXPECT_EQ(r1.stats().messages_extracted, 1u);
    EXPECT_EQ(r2.stats().messages_extracted, 1u);
  });
}

}  // namespace
}  // namespace alpha::core
