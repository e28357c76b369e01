// The relay replay and the per-layer ledger.
//
// replay() pushes a corpus through a fresh core::RelayPipeline (handshakes
// untimed, rounds timed) and checks every forwarded frame against the
// corpus: each authentic frame forwarded once, byte-identical and in order,
// each forged one dropped.
//
// run_ledger() times, from outside, each public call that mirrors one of
// the relay's steps, on the same frames: the wire peeks, CRC, S2 view
// parse and control-frame decode, the chain verifier, the payload MAC (or
// Merkle branch), plus a SHA-1 of 20 B for the paper-budget column. Every
// term loop is a span; the per-frame sum of the terms is set against the
// replay's measured cost per frame, and the remainder is reported as
// core.relay.unexplained_ns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/stats.hpp"
#include "corpus.hpp"

namespace perfbench {

struct ReplayOptions {
  std::size_t batch = 32;
  /// Time each group of `batch` enqueues (one flush) into batch_us.
  bool time_batches = false;
  /// Record a span per enqueue (and per forward callback) into `spans`.
  SpanLog* spans = nullptr;
};

struct ReplayResult {
  double seconds = 0;          // timed schedule replay
  double cpu_s = 0;            // thread CPU time of the timed replay
  std::uint64_t frames = 0;    // schedule frames offered
  std::uint64_t dropped = 0;
  std::uint64_t failures = 0;  // authentic not forwarded + forged forwarded
  std::string first_failure;
  std::vector<double> batch_us;
  std::uint64_t allocs = 0;      // heap allocations inside the timed replay
  std::int64_t state_bytes = 0;  // live heap held by the pipeline after it
  alpha::core::RelayStats relay;
};

ReplayResult replay(const Corpus& corpus, const ReplayOptions& options);

/// Ledger terms and the replay figures they are set against.
struct Ledger {
  std::uint64_t frames = 0;
  // Per call.
  double peek_ns = 0, crc_ns = 0, parse_s2_ns = 0, decode_ns = 0;
  double decode_allocs = 0;
  double chain_verify_ns = 0;  // per ChainVerifier call
  double mac_ns = 0;           // per payload MAC check (key schedule shared)
  double payload_auth_ns = 0;  // per S2: MAC (C) or leaf + branch (M)
  double hash20_ns = 0;
  double merkle_build_ns = 0;  // 16 leaves
  double merkle_verify_ns = 0; // one keyed branch
  // Per frame of the schedule.
  double terms_per_frame = 0;  // peek + parse/decode + chain + payload auth
  double ns_per_frame = 0;     // replay median
  double unexplained_ns = 0;
  double allocs_per_frame = 0;
  double state_bytes_per_assoc = 0;
  double hashes_per_frame = 0;
  double hashes_per_msg = 0;   // signer + verifier + relay, per message
  double drop_ratio = 0;
  double frames_per_flush = 0;
  double verify_batch_p50_ns = 0;
  double budget_ns = 0;        // hashes_per_frame x hash20_ns
  double budget_ratio = 0;     // ns_per_frame / budget_ns
  std::vector<std::string> notes;
};

/// Runs the ledger on `corpus`, recording its spans into `spans`.
Ledger run_ledger(const Corpus& corpus, SpanLog& spans, int reps);

/// Adds the ledger's per-layer metrics to the report. `live` supplies the
/// relay batching figures observed in a running path (nullptr: take them
/// from the ledger's own replay).
void report_ledger(const Ledger& ledger, const alpha::core::RelayStats* live,
                   Report& report);

struct UdpMicro {
  double hop_us = 0;                   // median one-way loopback hop
  double send_batch_ns_per_frame = 0;  // median, 32-frame send_batch
  std::uint64_t hop_samples = 0;
  std::uint64_t batch_samples = 0;
};

/// Bare UdpTransport ping-pong and send_batch of `frame_size`-byte frames.
UdpMicro run_udp_micro(std::size_t frame_size, std::uint64_t seed);
void report_udp_micro(const UdpMicro& micro, std::size_t frame_size,
                      Report& report);

/// Median S2 frame size of a corpus.
std::size_t median_s2_size(const Corpus& corpus);

}  // namespace perfbench
