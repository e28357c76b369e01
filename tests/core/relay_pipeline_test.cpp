// RelayPipeline equivalence suite: the batched fast path must make
// bit-identical decisions to the reference RelayEngine for ANY chop of ANY
// frame sequence into batches -- including under seeded chaos (duplicates,
// CRC corruption, resealed tampering, reordering, burst loss).
//
// Method: record an authentic traffic trace from two real Hosts, mutate it
// with a seeded chaos schedule, then feed the identical mutated sequence to
// (a) the reference engine and (b) pipelines at several batch sizes, and
// compare everything observable: the per-frame decision sequence, the
// forwarded frame sequence (bytes and direction), extracted payloads, the
// full stats block including the per-reason drop taxonomy and hash
// counters, the buffered pre-signature and ack-commitment bytes left
// behind, and the relay trace events each run emits (which is all a flight
// recording sees of a relay).
#include "core/relay_pipeline.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <tuple>

#include "core/host.hpp"
#include "core/relay.hpp"
#include "test_bus.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using crypto::ByteView;

struct ScheduledFrame {
  Direction dir = Direction::kForward;
  Bytes frame;
};

/// Records the full frame trace of `messages` rounds between two
/// directly-wired Hosts (handshake included). With `rekey_after` >= 0 the
/// initiator rotates its chains after that many messages, so the trace
/// carries a second handshake with fresh anchors. Deterministic per seed.
std::vector<ScheduledFrame> record_traffic(const Config& config,
                                           int messages,
                                           std::uint64_t seed,
                                           int rekey_after = -1) {
  std::vector<ScheduledFrame> trace;
  std::deque<ScheduledFrame> queue;
  crypto::HmacDrbg rng_a(seed), rng_b(seed + 1);

  std::optional<Host> a, b;
  Host::Callbacks a_cb;
  a_cb.send = [&](Bytes f) {
    queue.push_back({Direction::kForward, std::move(f)});
  };
  a.emplace(config, /*assoc_id=*/42, /*initiator=*/true, rng_a,
            std::move(a_cb));
  Host::Callbacks b_cb;
  b_cb.send = [&](Bytes f) {
    queue.push_back({Direction::kReverse, std::move(f)});
  };
  b.emplace(config, /*assoc_id=*/42, /*initiator=*/false, rng_b,
            std::move(b_cb));

  const auto pump = [&] {
    while (!queue.empty()) {
      ScheduledFrame f = std::move(queue.front());
      queue.pop_front();
      (f.dir == Direction::kForward ? *b : *a).on_frame(f.frame, 0);
      trace.push_back(std::move(f));
    }
  };

  a->start();
  pump();
  EXPECT_TRUE(a->established());
  for (int i = 0; i < messages; ++i) {
    if (i == rekey_after) {
      EXPECT_TRUE(a->force_rekey(0));
      pump();
    }
    a->submit(Bytes{static_cast<std::uint8_t>(i), 0xaa, 0x55,
                    static_cast<std::uint8_t>(i >> 8)},
              0);
    pump();
  }
  return trace;
}

struct Chaos {
  double dup = 0.0;          // duplicate a frame in place
  double corrupt_crc = 0.0;  // flip a byte, leave the stale CRC
  double corrupt_seal = 0.0; // flip a byte, recompute the CRC
  double reorder = 0.0;      // swap with the next frame
  double burst_loss = 0.0;   // drop a short run
};

std::vector<ScheduledFrame> mutate(const std::vector<ScheduledFrame>& trace,
                                   const Chaos& chaos, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<ScheduledFrame> out;
  out.reserve(trace.size() + trace.size() / 4);
  std::size_t skip = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (skip > 0) {
      --skip;
      continue;
    }
    if (coin(rng) < chaos.burst_loss) {
      skip = 1 + static_cast<std::size_t>(rng() % 3);
      continue;
    }
    ScheduledFrame f = trace[i];
    if (!f.frame.empty() && coin(rng) < chaos.corrupt_crc) {
      f.frame[rng() % f.frame.size()] ^= 0xff;
    }
    if (!f.frame.empty() && coin(rng) < chaos.corrupt_seal) {
      f.frame[rng() % f.frame.size()] ^= 0x01;
      testing::reseal(f.frame);
    }
    if (coin(rng) < chaos.reorder && i + 1 < trace.size()) {
      out.push_back(trace[i + 1]);
      ++i;  // the swapped partner is consumed; `f` follows it
    }
    out.push_back(f);
    if (coin(rng) < chaos.dup) out.push_back(out.back());
  }
  return out;
}

/// One relay trace event as a flight recording keys it:
/// (kind, assoc, seq, packet type, drop reason).
using RelayEvent = std::tuple<std::uint8_t, std::uint32_t, std::uint32_t,
                              std::uint8_t, std::uint8_t>;

/// Routes this thread's trace events into a private ring for one run.
class TraceCapture {
 public:
  TraceCapture() : previous_(trace::sink()) { trace::install(&ring_); }
  ~TraceCapture() { trace::install(previous_); }
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  std::vector<RelayEvent> events() const {
    EXPECT_EQ(ring_.dropped(), 0u) << "trace ring too small for the run";
    std::vector<RelayEvent> out;
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      const trace::Event& e = ring_.at(i);
      out.emplace_back(static_cast<std::uint8_t>(e.kind), e.assoc_id, e.seq,
                       e.packet_type, static_cast<std::uint8_t>(e.reason));
    }
    return out;
  }

 private:
  trace::Ring ring_{1 << 14};
  trace::Ring* previous_;
};

/// Everything observable about a relay run, for exact comparison.
struct Observed {
  std::vector<std::uint8_t> decisions;
  std::vector<Bytes> forwarded;  // direction byte + frame bytes
  std::vector<Bytes> extracted;
  RelayStats stats;
  std::size_t buffered_bytes = 0;
  std::size_t ack_buffered_bytes = 0;
  std::vector<RelayEvent> events;
};

Bytes tag(Direction dir, ByteView frame) {
  Bytes b;
  b.reserve(frame.size() + 1);
  b.push_back(static_cast<std::uint8_t>(dir));
  b.insert(b.end(), frame.begin(), frame.end());
  return b;
}

Observed run_reference(const Config& config, RelayEngine::Options options,
                    const std::vector<ScheduledFrame>& schedule) {
  Observed obs;
  RelayEngine::Callbacks cb;
  cb.forward = [&](Direction dir, ByteView frame) {
    obs.forwarded.push_back(tag(dir, frame));
  };
  cb.on_extracted = [&](std::uint32_t, std::uint32_t, std::uint16_t,
                        ByteView payload) {
    obs.extracted.emplace_back(payload.begin(), payload.end());
  };
  RelayEngine relay(config, options, std::move(cb));
  const TraceCapture capture;
  for (const auto& f : schedule) {
    obs.decisions.push_back(
        static_cast<std::uint8_t>(relay.on_frame(f.dir, f.frame)));
  }
  obs.stats = relay.stats();
  obs.buffered_bytes = relay.buffered_bytes();
  obs.ack_buffered_bytes = relay.ack_buffered_bytes();
  obs.events = capture.events();
  return obs;
}

Observed run_batched(const Config& config, RelayEngine::Options options,
                     const std::vector<ScheduledFrame>& schedule,
                     std::size_t batch) {
  Observed obs;
  RelayPipeline::Callbacks cb;
  cb.forward_batch = [&](const RelayPipeline::ForwardItem* items,
                         std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      obs.forwarded.push_back(tag(items[i].dir, items[i].frame));
    }
  };
  cb.on_extracted = [&](std::uint32_t, std::uint32_t, std::uint16_t,
                        ByteView payload) {
    obs.extracted.emplace_back(payload.begin(), payload.end());
  };
  cb.on_decision = [&](RelayDecision d, Direction, ByteView) {
    obs.decisions.push_back(static_cast<std::uint8_t>(d));
  };
  RelayPipeline pipe(config, options, std::move(cb), batch);
  const TraceCapture capture;
  for (const auto& f : schedule) pipe.enqueue(f.dir, f.frame);
  pipe.flush();
  EXPECT_EQ(pipe.pending(), 0u);
  obs.stats = pipe.stats();
  obs.buffered_bytes = pipe.buffered_bytes();
  obs.ack_buffered_bytes = pipe.ack_buffered_bytes();
  obs.events = capture.events();
  return obs;
}

void expect_equal(const Observed& reference, const Observed& batched,
                  std::size_t batch) {
  SCOPED_TRACE("batch=" + std::to_string(batch));
  EXPECT_EQ(reference.decisions, batched.decisions);
  EXPECT_EQ(reference.forwarded, batched.forwarded);
  EXPECT_EQ(reference.extracted, batched.extracted);
  EXPECT_EQ(reference.stats.forwarded, batched.stats.forwarded);
  EXPECT_EQ(reference.stats.dropped_invalid, batched.stats.dropped_invalid);
  EXPECT_EQ(reference.stats.dropped_unsolicited,
            batched.stats.dropped_unsolicited);
  EXPECT_EQ(reference.stats.messages_extracted,
            batched.stats.messages_extracted);
  EXPECT_EQ(reference.stats.acks_verified, batched.stats.acks_verified);
  EXPECT_EQ(reference.stats.hashes.signature, batched.stats.hashes.signature);
  EXPECT_EQ(reference.stats.hashes.chain_verify,
            batched.stats.hashes.chain_verify);
  EXPECT_EQ(reference.stats.hashes.ack, batched.stats.hashes.ack);
  for (std::size_t i = 0; i < trace::kDropReasonCount; ++i) {
    EXPECT_EQ(reference.stats.dropped_by_reason[i],
              batched.stats.dropped_by_reason[i])
        << "drop reason " << i;
  }
  EXPECT_EQ(reference.buffered_bytes, batched.buffered_bytes);
  EXPECT_EQ(reference.ack_buffered_bytes, batched.ack_buffered_bytes);
  EXPECT_EQ(reference.events.size(), reference.decisions.size());
  EXPECT_EQ(reference.events, batched.events);
}

constexpr std::size_t kBatches[] = {1, 3, 8, 64};

void check_equivalence(const Config& config, RelayEngine::Options options,
                       const std::vector<ScheduledFrame>& schedule) {
  const Observed reference = run_reference(config, options, schedule);
  for (const std::size_t batch : kBatches) {
    expect_equal(reference, run_batched(config, options, schedule, batch),
                 batch);
  }
}

Config base_config() {
  Config config;
  config.chain_length = 128;
  return config;
}

TEST(RelayPipelineEquivalence, CleanBaseTraffic) {
  const auto trace = record_traffic(base_config(), 20, /*seed=*/11);
  check_equivalence(base_config(), {}, trace);
}

TEST(RelayPipelineEquivalence, CleanReliablePreAck) {
  Config config = base_config();
  config.reliable = true;
  const auto trace = record_traffic(config, 16, /*seed=*/12);
  check_equivalence(config, {}, trace);
}

TEST(RelayPipelineEquivalence, CleanCumulativeBatches) {
  Config config = base_config();
  config.mode = Mode::kCumulative;
  config.batch_size = 6;
  config.reliable = true;
  const auto trace = record_traffic(config, 24, /*seed=*/13);
  check_equivalence(config, {}, trace);
}

TEST(RelayPipelineEquivalence, CleanMerkleWithPaths) {
  Config config = base_config();
  config.mode = Mode::kMerkle;
  config.batch_size = 8;
  const auto trace = record_traffic(config, 32, /*seed=*/14);
  check_equivalence(config, {}, trace);
}

TEST(RelayPipelineEquivalence, CleanCumulativeMerkle) {
  Config config = base_config();
  config.mode = Mode::kCumulativeMerkle;
  config.batch_size = 12;
  config.merkle_group = 4;
  const auto trace = record_traffic(config, 36, /*seed=*/15);
  check_equivalence(config, {}, trace);
}

TEST(RelayPipelineEquivalence, MerkleReliableAmt) {
  Config config = base_config();
  config.mode = Mode::kMerkle;
  config.batch_size = 4;
  config.reliable = true;
  const auto trace = record_traffic(config, 16, /*seed=*/16);
  check_equivalence(config, {}, trace);
}

// ---------------------------------------------------------------- chaos --

struct ChaosCase {
  const char* name;
  Chaos chaos;
};

const ChaosCase kChaosCases[] = {
    {"duplicates", {.dup = 0.30}},
    {"crc_corruption", {.corrupt_crc = 0.20}},
    {"resealed_tampering", {.corrupt_seal = 0.20}},
    {"reordering", {.reorder = 0.30}},
    {"burst_loss", {.burst_loss = 0.15}},
    {"everything",
     {.dup = 0.15,
      .corrupt_crc = 0.08,
      .corrupt_seal = 0.08,
      .reorder = 0.20,
      .burst_loss = 0.10}},
};

TEST(RelayPipelineEquivalence, SeededChaosBase) {
  Config config = base_config();
  config.reliable = true;
  const auto trace = record_traffic(config, 24, /*seed=*/21);
  for (const auto& c : kChaosCases) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(c.name) + " seed=" + std::to_string(seed));
      check_equivalence(config, {}, mutate(trace, c.chaos, seed));
    }
  }
}

TEST(RelayPipelineEquivalence, SeededChaosMerkle) {
  Config config = base_config();
  config.mode = Mode::kMerkle;
  config.batch_size = 8;
  config.reliable = true;
  const auto trace = record_traffic(config, 32, /*seed=*/22);
  for (const auto& c : kChaosCases) {
    SCOPED_TRACE(c.name);
    check_equivalence(config, {}, mutate(trace, c.chaos, /*seed=*/7));
  }
}

TEST(RelayPipelineEquivalence, NoHandshakeForwardingMode) {
  // require_handshake=false: unverifiable traffic passes through.
  Config config = base_config();
  const auto trace = record_traffic(config, 8, /*seed=*/31);
  // Strip the handshakes so every frame is unverifiable.
  std::vector<ScheduledFrame> no_hs;
  for (const auto& f : trace) {
    const auto t = wire::peek_type(f.frame);
    if (t == wire::PacketType::kHs1 || t == wire::PacketType::kHs2) continue;
    no_hs.push_back(f);
  }
  RelayEngine::Options options;
  options.require_handshake = false;
  check_equivalence(config, options, no_hs);
  options.require_handshake = true;
  check_equivalence(config, options, no_hs);
}

TEST(RelayPipelineEquivalence, RekeyRetiresBufferedRounds) {
  // A handshake with fresh anchors retires the flow's buffered rounds; the
  // rounds recorded before it must stop counting toward buffered_bytes()
  // even while their storage waits to be recycled.
  const auto trace = record_traffic(base_config(), 12, /*seed=*/42,
                                    /*rekey_after=*/10);
  std::size_t handshakes = 0;
  for (const auto& f : trace) {
    if (wire::peek_type(f.frame) == wire::PacketType::kHs1) ++handshakes;
  }
  ASSERT_EQ(handshakes, 2u);
  check_equivalence(base_config(), {}, trace);
}

TEST(RelayPipelineEquivalence, RoundEvictionUnderReversedS1s) {
  // More in-flight rounds than the per-flow cap, presented newest-first:
  // exercises the emplace-then-evict map semantics, including the case
  // where the incoming (lowest-seq) round evicts itself.
  Config config = base_config();
  config.chain_length = 64;
  const auto trace = record_traffic(config, 20, /*seed=*/41);
  std::vector<ScheduledFrame> schedule;
  std::vector<ScheduledFrame> s1s;
  for (const auto& f : trace) {
    const auto t = wire::peek_type(f.frame);
    if (t == wire::PacketType::kHs1 || t == wire::PacketType::kHs2) {
      schedule.push_back(f);
    } else if (t == wire::PacketType::kS1) {
      s1s.push_back(f);
    }
  }
  // S1 chain elements must still arrive in disclosure order for the chain
  // verifier to accept them, so replay them forward, then replay the whole
  // set again in reverse: the second pass hits the retransmission and
  // eviction paths for every seq.
  schedule.insert(schedule.end(), s1s.begin(), s1s.end());
  schedule.insert(schedule.end(), s1s.rbegin(), s1s.rend());
  check_equivalence(config, {}, schedule);
}

TEST(RelayPipelineEquivalence, HandshakeInsideBatch) {
  // The handshake and the traffic it authorizes land in ONE batch: pass-1
  // demux resolves the early frames to "no association", and pass 2 must
  // still see the association the in-batch handshake created.
  const auto trace = record_traffic(base_config(), 6, /*seed=*/51);
  const Observed reference = run_reference(base_config(), {}, trace);
  const Observed one_batch =
      run_batched(base_config(), {}, trace, trace.size());
  expect_equal(reference, one_batch, trace.size());
}

TEST(RelayPipelineEquivalence, StatePersistsAcrossFlushes) {
  // Same schedule, flushed frame-by-frame vs in big batches, must converge
  // to identical state: verify via a second traffic burst after the chop.
  Config config = base_config();
  config.reliable = true;
  const auto trace = record_traffic(config, 20, /*seed=*/61);
  const auto half = trace.size() / 2;

  for (const std::size_t batch : kBatches) {
    RelayPipeline::Callbacks cb;
    std::vector<std::uint8_t> decisions;
    cb.on_decision = [&](RelayDecision d, Direction, ByteView) {
      decisions.push_back(static_cast<std::uint8_t>(d));
    };
    RelayPipeline pipe(config, {}, std::move(cb), batch);
    for (std::size_t i = 0; i < half; ++i) {
      pipe.enqueue(trace[i].dir, trace[i].frame);
      pipe.flush();  // worst case: flush after every frame
    }
    for (std::size_t i = half; i < trace.size(); ++i) {
      pipe.enqueue(trace[i].dir, trace[i].frame);
    }
    pipe.flush();
    const Observed reference = run_reference(config, {}, trace);
    EXPECT_EQ(reference.decisions, decisions) << "batch=" << batch;
  }
}

TEST(RelayPipelineStats, BatchLatencyHistogramFills) {
  const auto trace = record_traffic(base_config(), 10, /*seed=*/71);
  RelayPipeline pipe(base_config(), {}, {}, 16);
  for (const auto& f : trace) pipe.enqueue(f.dir, f.frame);
  pipe.flush();
  EXPECT_GT(pipe.stats().verify_batch_ns.count(), 0u);
  EXPECT_EQ(pipe.stats().verify_batch_frames, trace.size());
  // The reference engine leaves the latency instrumentation empty by design.
  RelayEngine reference(base_config(), {}, {});
  EXPECT_EQ(reference.stats().verify_batch_ns.count(), 0u);
}

TEST(RelayPipelineStats, DropTaxonomyAttribution) {
  const auto trace = record_traffic(base_config(), 4, /*seed=*/81);
  RelayPipeline pipe(base_config(), {}, {}, 8);
  for (const auto& f : trace) pipe.enqueue(f.dir, f.frame);
  // Garbage frame: malformed, attributed to kDecodeError.
  const Bytes junk{0x01, 0x03, 0x00, 0x00, 0x00, 0x2a, 0xde, 0xad};
  pipe.enqueue(Direction::kForward, junk);
  // Unknown association: dropped unsolicited, attributed to kUnsolicited.
  const auto s2_for_unknown = [] {
    wire::S2Packet s2;
    s2.hdr = {999, 1};
    s2.disclosed_element = crypto::Digest{};
    s2.payload = Bytes{1, 2, 3};
    return s2.encode();
  }();
  pipe.enqueue(Direction::kForward, s2_for_unknown);
  pipe.flush();
  const RelayStats& s = pipe.stats();
  EXPECT_GE(s.dropped_by_reason[static_cast<std::size_t>(
                trace::DropReason::kDecodeError)],
            1u);
  EXPECT_GE(s.dropped_by_reason[static_cast<std::size_t>(
                trace::DropReason::kUnsolicited)],
            1u);
  std::uint64_t by_reason = 0;
  for (std::size_t i = 0; i < trace::kDropReasonCount; ++i) {
    by_reason += s.dropped_by_reason[i];
  }
  // Every drop is attributed to exactly one taxonomy reason.
  EXPECT_EQ(by_reason, s.dropped_invalid + s.dropped_unsolicited);
}

}  // namespace
}  // namespace alpha::core
