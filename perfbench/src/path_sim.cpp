// path_sim: a deterministic whole-protocol run over SimTransport and
// net::Network on the path src - r1 - r2 - dst.
//
// Links: 5 ms latency, 2 ms jitter, 1 Gbit/s, seeded 2% loss, 1% duplication and 2%
// reordering. 256 associations run reliable ALPHA-M (n=16, AMT acks) with
// 256 B payloads and rekey threshold 64; both relays run RelayPipeline
// batch 32, and every node is a ShardedNode driven inline. Closed loop:
// each association keeps two rounds (32 messages) outstanding and submits
// its next message when on_delivery reports an ack. The simulator advances
// in 5 ms virtual steps until the wall-clock budget is spent, so the state
// at a given virtual time repeats exactly for a seed; the checkpoint line
// prints it.
#include <memory>
#include <string>
#include <unordered_map>

#include "core/sharded_node.hpp"
#include "corpus.hpp"
#include "ledger.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "paths.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = alpha::core;
namespace net = alpha::net;

namespace {

constexpr std::size_t kAssocs = 256;
constexpr std::size_t kPayload = 256;
constexpr std::size_t kWindow = 32;
constexpr net::SimTime kStep = 5 * net::kMillisecond;
constexpr net::SimTime kCheckpoint = 2 * net::kSecond;

core::Config sim_config() {
  core::Config c;
  c.mode = alpha::wire::Mode::kMerkle;
  c.batch_size = 16;
  c.reliable = true;
  c.rekey_threshold = 64;
  c.chain_length = 96;  // rekey every 16 rounds
  c.max_retries = 10;
  return c;
}

/// The simulated path and its four nodes. Callbacks reach the workload
/// through the std::function members, set once the path is built.
struct SimPath {
  explicit SimPath(std::uint64_t seed) : network(sim, mix64(seed)) {}
  SimPath(const SimPath&) = delete;
  SimPath& operator=(const SimPath&) = delete;

  net::Simulator sim;
  net::Network network;
  std::vector<std::uint32_t> ids;
  std::function<void(std::uint32_t, alpha::crypto::ByteView)> on_message;
  std::function<void(std::uint32_t, std::uint64_t, core::DeliveryStatus)>
      on_delivery;
  std::unique_ptr<core::ShardedNode> src, r1, r2, dst;
};

std::unique_ptr<SimPath> build_path(std::uint64_t seed) {
  auto p = std::make_unique<SimPath>(seed);
  SimPath* raw = p.get();
  for (net::NodeId id = 0; id <= 3; ++id) p->network.add_node(id);
  net::LinkConfig link;
  link.latency = 5 * net::kMillisecond;
  link.jitter = 2 * net::kMillisecond;
  link.loss_rate = 0.02;
  // Wide enough that 256 x 32 messages in flight do not queue on the
  // links: latency then reflects the protocol, not serialisation.
  link.bandwidth_bps = 1'000'000'000;
  net::FaultConfig faults;
  faults.duplicate_rate = 0.01;
  faults.reorder_rate = 0.02;
  for (net::NodeId id = 0; id < 3; ++id) {
    p->network.add_link(id, id + 1, link);
    p->network.set_link_faults(id, id + 1, faults);
  }
  p->network.set_chaos_seed(mix64(seed ^ 0xc4a05ull));

  const core::Config config = sim_config();
  p->ids = make_assoc_ids(seed, kAssocs);
  const auto options = [&](std::uint64_t salt) {
    core::ShardedNode::Options o;
    o.shard.config = config;
    o.shard.seed = mix64(seed + salt);
    o.workers = 1;
    return o;
  };
  core::ShardedNode::Callbacks src_cb;
  src_cb.on_delivery = [raw](std::uint32_t a, std::uint64_t cookie,
                             core::DeliveryStatus s) {
    if (raw->on_delivery) raw->on_delivery(a, cookie, s);
  };
  p->src = std::make_unique<core::ShardedNode>(
      std::make_unique<net::SimTransport>(p->network, 0), options(1), src_cb);
  p->r1 = std::make_unique<core::ShardedNode>(
      std::make_unique<net::SimTransport>(p->network, 1), options(2));
  p->r1->add_relay(0, 2, p->ids, 32);
  p->r2 = std::make_unique<core::ShardedNode>(
      std::make_unique<net::SimTransport>(p->network, 2), options(3));
  p->r2->add_relay(1, 3, p->ids, 32);
  core::ShardedNode::Options dst_opts = options(4);
  dst_opts.shard.accept_inbound = true;
  core::ShardedNode::Callbacks dst_cb;
  dst_cb.on_message = [raw](std::uint32_t a, alpha::crypto::ByteView m) {
    if (raw->on_message) raw->on_message(a, m);
  };
  p->dst = std::make_unique<core::ShardedNode>(
      std::make_unique<net::SimTransport>(p->network, 3), dst_opts, dst_cb);

  for (const std::uint32_t id : p->ids) {
    p->src->add_initiator(id, 1, config, {});
    p->src->start(id);
  }
  // Handshakes ride the same lossy links; restart stragglers like a
  // deployment would.
  for (int attempt = 0; attempt < 20 && p->src->established_count() < kAssocs;
       ++attempt) {
    p->sim.run_until(p->sim.now() + 5 * net::kSecond);
    if (p->src->established_count() == kAssocs) break;
    for (const auto& as : p->src->snapshot(true).assocs) {
      if (!as.established) p->src->start(as.assoc_id);
    }
  }
  if (p->src->established_count() != kAssocs) {
    throw std::runtime_error("path_sim: associations failed to establish");
  }
  return p;
}

struct Ack {
  std::uint32_t assoc;
  std::uint64_t cookie;
  core::DeliveryStatus status;
};

}  // namespace

void run_path_sim(const RunOptions& opt, Report& report) {
  std::unique_ptr<SimPath> path;
  const double setup_s =
      timed_setup(5, path, [&] { return build_path(opt.seed); });
  SimPath& p = *path;
  const net::SimTime t_setup = p.sim.now();

  std::unordered_map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < p.ids.size(); ++i) index[p.ids[i]] = i;
  const MessageIds msg_ids{p.ids.size()};
  std::vector<std::uint64_t> submitted(p.ids.size(), 0);  // per association
  std::uint64_t total_submitted = 0;
  // Room for 100k messages per wall second, several times this path's rate.
  MessageBook book{static_cast<std::uint64_t>((opt.seconds + 5) * 100'000)};
  std::vector<Ack> acks;

  SpanLog spans;
  const std::uint16_t submit_name = spans.name_id("core.shard.submit");
  const std::uint16_t step_name = spans.name_id("net.sim.step");
  const std::uint16_t deliver_name = spans.name_id("app.on_message");
  bool tracing = false;
  std::uint32_t step_span = SpanLog::kNoParent;

  bool collecting = false;
  std::uint64_t window_delivered = 0;
  LogHistogram vlat_us;

  p.on_delivery = [&](std::uint32_t a, std::uint64_t cookie,
                      core::DeliveryStatus s) {
    acks.push_back({a, cookie, s});
  };
  p.on_message = [&](std::uint32_t, alpha::crypto::ByteView m) {
    const std::uint64_t t0 = tracing ? now_ns() : 0;
    std::uint64_t id = 0, stamp = 0;
    if (!parse_payload(opt.seed, m, kPayload, id, stamp)) {
      ++book.corrupt;
      return;
    }
    if (msg_ids.seq_of(id) >= submitted[msg_ids.assoc_of(id)]) {
      ++book.unknown;
      return;
    }
    book.delivered(id);
    if (opt.inject == "drop-message" && id == 0) book.forget(0);
    if (collecting) {
      ++window_delivered;
      vlat_us.add(static_cast<double>(p.sim.now() - stamp));
    }
    if (tracing && id % 8 == 0) {
      spans.record(deliver_name, id, step_span, t0, now_ns());
    }
  };
  const auto submit = [&](std::size_t ai) {
    const std::uint64_t seq = submitted[ai]++;
    ++total_submitted;
    const std::uint64_t id = msg_ids.id(ai, seq + 1);
    auto payload = make_payload(opt.seed, id, p.sim.now(), kPayload);
    const std::uint64_t t0 = tracing ? now_ns() : 0;
    const std::uint64_t cookie = p.src->submit(p.ids[ai], std::move(payload));
    if (tracing && id % 8 == 0) {  // one message in eight, as in path_udp
      spans.record(submit_name, id, SpanLog::kNoParent, t0, now_ns());
    }
    if (cookie != seq + 1) {
      report.error("path_sim: unexpected delivery cookie");
    }
  };
  const auto settle_acks = [&](bool refill) {
    for (const Ack& a : acks) {
      const std::size_t ai = index.at(a.assoc);
      if (a.cookie == 0 || a.cookie > submitted[ai]) {
        ++book.unknown;
        continue;
      }
      const std::uint64_t id = msg_ids.id(ai, a.cookie);
      if (a.status == core::DeliveryStatus::kAcked) {
        book.acked(id);
      } else {
        ++book.bad_status;
      }
      if (refill) submit(ai);
    }
    acks.clear();
  };

  for (std::size_t ai = 0; ai < p.ids.size(); ++ai) {
    for (std::size_t k = 0; k < kWindow; ++k) submit(ai);
  }

  // Warm-up, then the measured window; the traced run measures its first
  // half untraced and its second half traced.
  const double warmup = std::min(1.0, 0.1 * opt.seconds);
  const double half = warmup + (opt.seconds - warmup) / 2;
  const auto t0 = Clock::now();
  Slices plain(0.5), traced(0.5);
  bool checkpointed = false;
  while (true) {
    const double elapsed = seconds_since(t0);
    if (elapsed >= opt.seconds) break;
    if (!collecting && elapsed >= warmup) {
      collecting = true;
      plain.start(elapsed, window_delivered, process_cpu_s());
    }
    if (opt.trace && !tracing && elapsed >= half) {
      traced.start(elapsed, window_delivered, process_cpu_s());
      tracing = true;
    }
    if (Slices& slices = tracing ? traced : plain; slices.due(elapsed)) {
      slices.close(elapsed, window_delivered, process_cpu_s());
    }
    const std::uint64_t s0 = tracing ? now_ns() : 0;
    if (tracing) step_span = spans.open(step_name, p.sim.now(), SpanLog::kNoParent, s0);
    p.sim.run_until(p.sim.now() + kStep);
    if (tracing) spans.close(step_span, now_ns());
    settle_acks(true);
    if (!checkpointed && p.sim.now() - t_setup >= kCheckpoint) {
      checkpointed = true;
      const auto st = p.network.total_stats();
      const std::uint64_t delivered = book.deliveries;
      report.line("# sim checkpoint at setup+2s virtual: submitted=" +
                  std::to_string(total_submitted) + " delivered=" +
                  std::to_string(delivered) + " frames_sent=" +
                  std::to_string(st.frames_sent) + " bytes_delivered=" +
                  std::to_string(st.bytes_delivered) +
                  " (repeats exactly for a seed)");
    }
  }
  collecting = false;
  tracing = false;
  const std::uint64_t measured = window_delivered;

  // Drain: no new submissions; every outstanding message must settle.
  const net::SimTime drain_deadline = p.sim.now() + 300 * net::kSecond;
  const auto settled = [&] {
    return book.acks + book.bad_status;
  };
  while (settled() < total_submitted && p.sim.now() < drain_deadline) {
    p.sim.run_until(p.sim.now() + 100 * net::kMillisecond);
    settle_acks(false);
  }
  book.check(msg_ids, submitted, report);

  const auto src = p.src->snapshot(true);
  const auto dst = p.dst->snapshot(true);
  core::NodeSnapshot r1 = p.r1->snapshot();
  const core::NodeSnapshot r2 = p.r2->snapshot();
  const auto net_stats = p.network.total_stats();
  const std::uint64_t delivered = book.deliveries;
  const double per = static_cast<double>(delivered);
  core::HashWork work;
  for (const auto* snap : {&src, &dst}) {
    for (const auto& as : snap->assocs) {
      work += as.signer.hashes;
      work += as.verifier.hashes;
    }
  }
  work += r1.relay.hashes;
  work += r2.relay.hashes;
  const double payload_bytes = static_cast<double>(delivered * kPayload * 3);
  const double overhead =
      (static_cast<double>(net_stats.bytes_delivered) - payload_bytes) / per;

  report.info("delivered_msgs", per, "count", delivered, "whole run");
  report.info("overhead_bytes_per_msg", overhead, "B", delivered,
              "link bytes minus 3 x payload, per delivered message (Fig. 6)");
  report.info("core.host.retransmits_per_msg",
              static_cast<double>(src.retransmits + dst.retransmits) / per,
              "count", delivered);
  report.info("core.host.timer_fires_per_msg",
              static_cast<double>(src.timer_fires + dst.timer_fires) / per,
              "count", delivered);
  report.info("core.host.rekeys", static_cast<double>(src.rekeys_started),
              "count", delivered);
  report.info("core.relay.forwarded_per_msg",
              static_cast<double>(r1.relay.forwarded + r2.relay.forwarded) /
                  per,
              "count", delivered, "r1 + r2");
  report.info("net.sim.frames_per_msg",
              static_cast<double>(net_stats.frames_sent) / per, "count",
              delivered, "all links");
  report.info("net.sim.lost_per_msg",
              static_cast<double>(net_stats.frames_lost) / per, "count",
              delivered);
  report.info("net.sim.duplicated_per_msg",
              static_cast<double>(net_stats.frames_duplicated) / per, "count",
              delivered);
  report.info("net.sim.reordered_per_msg",
              static_cast<double>(net_stats.frames_reordered) / per, "count",
              delivered);
  report_hashes_per_msg(work, delivered, report);

  if (!opt.trace) {
    report.declared("setup_s", "setup_s", setup_s, "s", 5,
                    "median of 5 path builds + 256 handshakes");
    const std::string per_slice =
        "median over " + std::to_string(plain.size()) + " 0.5 s slices";
    report.line("# slice rates (1/s):" + plain.rates_line());
    report.declared("rate_per_s", "sim_msgs_s", plain.median_rate(), "1/s",
                    measured, "delivered per wall second, " + per_slice);
    report.declared("lat_p50_us", "vlat_p50_us", vlat_us.quantile(0.5), "us",
                    vlat_us.count(), "virtual time, submit to on_message");
    report.declared("lat_p99_us", "vlat_p99_us", vlat_us.quantile(0.99), "us",
                    vlat_us.count(), "virtual time");
    report.declared("cpu_us_per_op", "cpu_us_per_msg",
                    plain.median_cpu_per_op() * 1e6, "us", measured,
                    per_slice);
    report.declared("peak_rss_mb", "peak_rss_mb", peak_rss_mb(), "MB", 1);
    return;
  }

  const double plain_rate = plain.median_rate();
  const double traced_rate = traced.median_rate();
  report.info("trace.sim_msgs_s_untraced", plain_rate, "1/s", plain.size(),
              "median over 0.5 s slices");
  report.info("trace.sim_msgs_s_traced", traced_rate, "1/s", traced.size());
  report.info("trace.overhead", plain_rate / traced_rate - 1.0, "ratio",
              measured, "untraced/traced - 1");
  double submit_ns = 0, step_self_ns = 0;
  std::uint64_t submits = 0, steps = 0;
  for (const auto& lt : spans.layer_times()) {
    if (lt.name == "core.shard.submit") {
      submit_ns = lt.self_ns;
      submits = lt.spans;
    } else if (lt.name == "net.sim.step") {
      step_self_ns = lt.self_ns;
      steps = lt.spans;
    }
  }
  report.info("core.shard.submit_ns", submit_ns / static_cast<double>(submits),
              "ns", submits, "ShardedNode::submit, inline");
  report.info("net.sim.step_self_us", step_self_ns * 1e-3 / steps, "us", steps,
              "5 ms virtual step minus on_message spans");

  r1.relay += r2.relay;
  CorpusSpec spec;
  spec.config = sim_config();
  spec.config.chain_length = 8;
  spec.assoc_ids = p.ids;
  spec.rounds = 2;
  spec.payload_mix = {{kPayload, 1}};
  spec.seed = opt.seed;
  const Corpus corpus = generate_corpus(spec);
  report_ledger(run_ledger(corpus, spans, 3), &r1.relay, report);
  report_udp_micro(run_udp_micro(median_s2_size(corpus), opt.seed),
                   median_s2_size(corpus), report);
  report_span_layers(spans, report);
  write_spans(spans, opt, "path_sim", report);
}

}  // namespace perfbench
