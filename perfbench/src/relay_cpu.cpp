// relay_cpu: engine-authentic ALPHA-C traffic (n=16, unreliable) replayed
// through core::RelayPipeline (batch 32) on one thread, no sockets.
//
// 4096 associations, rounds interleaved round-robin so relay state exceeds
// L2; payloads 64/512/1400 B at 7:4:1 by count; 1% of S2s forged (one
// payload byte flipped, CRC resealed) and required to be dropped. The
// corpus is generated in set-up; each timed pass replays it through a
// fresh pipeline whose handshakes are fed untimed. Closed loop: frames are
// offered as fast as one thread processes them.
#include <cstdio>
#include <memory>
#include <string>

#include "corpus.hpp"
#include "ledger.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kAssocs = 4096;
constexpr std::size_t kRounds = 2;
constexpr std::size_t kBatch = 32;

CorpusSpec relay_spec(std::uint64_t seed) {
  CorpusSpec spec;
  spec.config.mode = alpha::wire::Mode::kCumulative;
  spec.config.batch_size = 16;
  spec.config.reliable = false;
  spec.config.chain_length = 2 * kRounds + 4;
  spec.assoc_ids = make_assoc_ids(seed, kAssocs);
  spec.rounds = kRounds;
  spec.payload_mix = {{64, 7}, {512, 4}, {1400, 1}};
  spec.forged_share = 0.01;
  spec.seed = seed;
  return spec;
}

/// Per-pass figures; the run reports medians over passes, so a pass slowed
/// by interference from outside the process does not move the result.
struct PassTotals {
  std::vector<double> rates;  // frames per second
  std::vector<double> p50_us, p99_us;  // flush latency quantiles
  std::vector<double> cpu_us;          // thread CPU per frame
  std::uint64_t frames = 0;
  std::uint64_t failures = 0;
  std::string first_failure;
};

void add_pass(PassTotals& t, const ReplayResult& r, const Corpus& corpus,
              Report& report) {
  t.rates.push_back(static_cast<double>(r.frames) / r.seconds);
  if (!r.batch_us.empty()) {
    t.p50_us.push_back(quantile(r.batch_us, 0.5));
    t.p99_us.push_back(quantile(r.batch_us, 0.99));
  }
  t.cpu_us.push_back(r.cpu_s * 1e6 / static_cast<double>(r.frames));
  t.frames += r.frames;
  t.failures += r.failures;
  if (r.failures != 0 && t.first_failure.empty()) {
    t.first_failure = r.first_failure;
  }
  if (r.dropped != corpus.forged_frames && r.failures == 0) {
    report.error("relay dropped " + std::to_string(r.dropped) +
                 " frames, corpus forged " +
                 std::to_string(corpus.forged_frames));
  }
}

}  // namespace

void run_relay_cpu(const RunOptions& opt, Report& report) {
  const CorpusSpec spec = relay_spec(opt.seed);
  std::unique_ptr<Corpus> corpus;
  const double setup_s = timed_setup(3, corpus, [&] {
    return std::make_unique<Corpus>(generate_corpus(spec));
  });
  if (opt.inject == "forged-forwarded") inject_false_forgery(*corpus);
  const Corpus& c = *corpus;
  report.line("# relay_cpu: assocs=" + std::to_string(kAssocs) +
              " rounds/pass=" + std::to_string(kRounds) +
              " frames/pass=" + std::to_string(c.schedule.size()) +
              " forged/pass=" + std::to_string(c.forged_frames) +
              " corpus_bytes=" + std::to_string(c.arena.size()));

  PassTotals plain, traced;
  SpanLog spans;
  const auto t0 = Clock::now();
  // Untraced runs measure every pass; the traced run alternates plain and
  // traced passes (two each) so the tracing overhead compares like with
  // like, then runs the ledger.
  for (int pass = 0;; ++pass) {
    const bool trace_pass = opt.trace && pass % 2 == 1;
    ReplayOptions ro;
    ro.batch = kBatch;
    ro.time_batches = !trace_pass;
    ro.spans = trace_pass ? &spans : nullptr;
    add_pass(trace_pass ? traced : plain, replay(c, ro), c, report);
    if (opt.trace ? pass >= 3 : (pass >= 2 && seconds_since(t0) >= opt.seconds))
      break;
  }

  const std::uint64_t frames = plain.frames + traced.frames;
  const std::uint64_t failures = plain.failures + traced.failures;
  report.count(frames, failures);
  if (failures != 0) report.error("relay_cpu: " + plain.first_failure +
                                  traced.first_failure);

  const double pps = median(plain.rates);
  std::string rates = "# pass rates (1/s):";
  for (const double r : plain.rates) {
    rates += ' ';
    rates += std::to_string(static_cast<long long>(r));
  }
  report.line(rates);
  if (!opt.trace) {
    report.declared("setup_s", "setup_s", setup_s, "s", 3,
                    "median of 3 corpus generations");
    const std::string per_pass =
        "median over " + std::to_string(plain.rates.size()) + " passes";
    const std::uint64_t flushes = plain.frames / kBatch;
    report.declared("rate_per_s", "relay_pps", pps, "1/s", plain.frames,
                    "offered frames, " + per_pass);
    report.declared("lat_p50_us", "flush_lat_p50_us", median(plain.p50_us),
                    "us", flushes,
                    "32-frame enqueue+verify+forward, " + per_pass);
    report.declared("lat_p99_us", "flush_lat_p99_us", median(plain.p99_us),
                    "us", flushes, per_pass);
    report.declared("cpu_us_per_op", "cpu_us_per_frame", median(plain.cpu_us),
                    "us", plain.frames, "thread CPU, " + per_pass);
    report.declared("peak_rss_mb", "peak_rss_mb", peak_rss_mb(), "MB", 1,
                    "dominated by the pre-generated corpus");
    report.info("fail_ratio", static_cast<double>(failures) /
                                  static_cast<double>(frames),
                "ratio", frames);
    return;
  }

  const double traced_pps = median(traced.rates);
  report.info("trace.relay_pps_untraced", pps, "1/s", plain.rates.size());
  report.info("trace.relay_pps_traced", traced_pps, "1/s",
              traced.rates.size());
  report.info("trace.overhead", pps / traced_pps - 1.0, "ratio",
              traced.rates.size(), "untraced/traced - 1");

  const Ledger ledger = run_ledger(c, spans, 3);
  report_ledger(ledger, nullptr, report);
  report.info("core.relay.drop_ratio_expected",
              static_cast<double>(c.forged_frames) /
                  static_cast<double>(c.schedule.size()),
              "ratio", c.schedule.size(), "forged share of frames");
  const auto& h = c.signer_hashes;
  const auto& v = c.verifier_hashes;
  const double msgs = static_cast<double>(c.messages);
  report.info("crypto.hashes_per_msg.signature",
              (h.signature + v.signature) / msgs, "count", c.messages,
              "signer + verifier (Table 1)");
  report.info("crypto.hashes_per_msg.chain_create",
              (h.chain_create + v.chain_create) / msgs, "count", c.messages);
  report.info("crypto.hashes_per_msg.chain_verify",
              (h.chain_verify + v.chain_verify) / msgs, "count", c.messages);
  report.info("crypto.hashes_per_msg.ack", (h.ack + v.ack) / msgs, "count",
              c.messages);
  report_udp_micro(run_udp_micro(median_s2_size(c), opt.seed),
                   median_s2_size(c), report);
  report_span_layers(spans, report);
  write_spans(spans, opt, "relay_cpu", report);
}

}  // namespace perfbench
