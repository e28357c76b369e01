// path_udp: a loopback UDP path src -> relay -> dst of three ShardedNodes,
// one worker each (six runtime threads) plus this process's generator
// thread.
//
// 64 associations run reliable ALPHA-C (n=8) with 64 B payloads; the relay
// runs RelayPipeline batch 32. Closed loop: each association keeps 16
// messages outstanding and submits its next one when on_delivery reports
// an ack. The only workload where batched UDP syscalls, the supervisor I/O
// thread and the ring hop sit on every message's path.
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "core/sharded_node.hpp"
#include "corpus.hpp"
#include "ledger.hpp"
#include "net/transport.hpp"
#include "paths.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = alpha::core;
namespace net = alpha::net;

namespace {

constexpr std::size_t kAssocs = 64;
constexpr std::size_t kPayload = 64;
constexpr std::size_t kWindow = 16;

core::Config udp_config() {
  core::Config c;
  c.mode = alpha::wire::Mode::kCumulative;
  c.batch_size = 8;
  c.reliable = true;
  c.chain_length = 2048;
  c.rekey_threshold = 64;  // rotate instead of running out at any rate
  c.rto_us = 50'000;
  c.max_retries = 50;
  return c;
}

/// Message spans are kept for one id in eight (the same ids in every log,
/// so they still join), which bounds the span file and the overhead.
bool traced_id(std::uint64_t id) { return id % 8 == 0; }

struct Ack {
  std::uint32_t assoc;
  std::uint64_t cookie;
  core::DeliveryStatus status;
};

/// The three nodes plus everything their callbacks write. Callbacks run on
/// the nodes' worker threads; each field below has one writer.
struct UdpPath {
  UdpPath(std::uint64_t capacity, std::size_t max_slices)
      : book(capacity), lat_hist(max_slices) {}
  UdpPath(const UdpPath&) = delete;
  UdpPath& operator=(const UdpPath&) = delete;
  ~UdpPath() { stop(); }

  /// Joins every runtime thread (destroying the nodes).
  void stop() {
    src.reset();
    relay.reset();
    dst.reset();
  }

  std::uint64_t seed = 0;
  std::vector<std::uint32_t> ids;
  std::unordered_map<std::uint32_t, std::size_t> index;  // assoc id -> index
  MessageIds msg_ids{kAssocs};
  // Messages submitted per association (written by the generator).
  std::atomic<std::uint64_t> submitted[kAssocs] = {};

  // Written by the dst worker.
  MessageBook book;  // deliveries here, acks from the generator
  // Submit-to-delivery latency per measured slice; the generator moves
  // lat_slice on at each slice edge (-1: not measuring).
  std::vector<LogHistogram> lat_hist;
  std::atomic<int> lat_slice{-1};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> collecting{false};
  std::atomic<std::uint64_t> window_delivered{0};
  std::atomic<bool> tracing{false};
  SpanLog dst_spans;
  std::uint16_t e2e_name = dst_spans.name_id("msg.submit_to_deliver");
  std::uint16_t on_message_name = dst_spans.name_id("app.on_message");
  bool drop_one = false;

  // Written by the src worker, drained by the generator.
  std::mutex ack_mu;
  std::condition_variable ack_cv;
  std::vector<Ack> acks;
  SpanLog src_spans;
  std::uint16_t on_delivery_name = src_spans.name_id("app.on_delivery");

  // Thread ids per node: [0] I/O, [1] worker.
  pid_t tids[3][2] = {};
  std::atomic<pid_t> worker_tid[3] = {};

  std::unique_ptr<core::ShardedNode> src, relay, dst;
};

void on_message(UdpPath& p, std::uint32_t, alpha::crypto::ByteView m) {
  const std::uint64_t t = now_ns();
  std::uint64_t id = 0, stamp = 0;
  if (!parse_payload(p.seed, m, kPayload, id, stamp)) {
    ++p.book.corrupt;
    return;
  }
  if (p.msg_ids.seq_of(id) >=
      p.submitted[p.msg_ids.assoc_of(id)].load(std::memory_order_relaxed)) {
    ++p.book.unknown;
    return;
  }
  p.book.delivered(id);
  if (p.drop_one && id == 0) p.book.forget(0);
  p.delivered.store(p.delivered.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  if (p.collecting.load(std::memory_order_relaxed)) {
    p.window_delivered.store(
        p.window_delivered.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    const int slice = p.lat_slice.load(std::memory_order_relaxed);
    if (slice >= 0 && static_cast<std::size_t>(slice) < p.lat_hist.size()) {
      p.lat_hist[static_cast<std::size_t>(slice)].add(
          static_cast<double>(t - stamp) * 1e-3);
    }
  }
  if (p.tracing.load(std::memory_order_relaxed) && traced_id(id)) {
    // The submit stamp travels in the payload: the span runs from the
    // submit to this delivery and joins the submit span by message id.
    p.dst_spans.record(p.e2e_name, id, SpanLog::kNoParent, stamp, t);
    p.dst_spans.record(p.on_message_name, id, SpanLog::kNoParent, t,
                       now_ns());
  }
}

std::unique_ptr<UdpPath> build_path(std::uint64_t seed, bool drop_one,
                                    double seconds) {
  // Room for 500k messages per second, several times the rate this path
  // reaches on a 4-core host; a run beyond it fails loudly.
  const auto capacity = static_cast<std::uint64_t>((seconds + 5) * 500'000);
  const auto max_slices = static_cast<std::size_t>(2 * seconds / 0.5 + 4);
  auto p = std::make_unique<UdpPath>(capacity, max_slices);
  UdpPath* raw = p.get();
  p->seed = seed;
  p->drop_one = drop_one;
  p->ids = make_assoc_ids(seed, kAssocs);
  for (std::size_t i = 0; i < p->ids.size(); ++i) p->index[p->ids[i]] = i;
  const core::Config config = udp_config();

  auto udp_src = std::make_unique<net::UdpTransport>();
  auto udp_relay = std::make_unique<net::UdpTransport>();
  auto udp_dst = std::make_unique<net::UdpTransport>();
  const std::uint16_t port_src = udp_src->port();
  const std::uint16_t port_relay = udp_relay->port();
  const std::uint16_t port_dst = udp_dst->port();

  const auto options = [&](std::uint64_t salt, int node) {
    core::ShardedNode::Options o;
    o.shard.config = config;
    o.shard.seed = mix64(seed + salt);
    o.workers = 1;
    o.worker_init = [raw, node](std::uint32_t) {
      raw->worker_tid[node].store(current_tid());
    };
    return o;
  };
  p->relay = std::make_unique<core::ShardedNode>(std::move(udp_relay),
                                                 options(2, 1));
  p->relay->add_relay(port_src, port_dst, p->ids, 32);

  core::ShardedNode::Options dst_opts = options(3, 2);
  dst_opts.shard.accept_inbound = true;
  core::ShardedNode::Callbacks dst_cb;
  dst_cb.on_message = [raw](std::uint32_t a, alpha::crypto::ByteView m) {
    on_message(*raw, a, m);
  };
  p->dst = std::make_unique<core::ShardedNode>(std::move(udp_dst), dst_opts,
                                               dst_cb);

  core::ShardedNode::Callbacks src_cb;
  src_cb.on_delivery = [raw](std::uint32_t a, std::uint64_t cookie,
                             core::DeliveryStatus s) {
    const std::uint64_t t = now_ns();
    {
      const std::lock_guard<std::mutex> lock(raw->ack_mu);
      raw->acks.push_back({a, cookie, s});
    }
    raw->ack_cv.notify_one();
    if (raw->tracing.load(std::memory_order_relaxed)) {
      const std::uint64_t id = raw->msg_ids.id(raw->index.at(a), cookie);
      if (traced_id(id)) {
        raw->src_spans.record(raw->on_delivery_name, id, SpanLog::kNoParent,
                              t, now_ns());
      }
    }
  };
  p->src = std::make_unique<core::ShardedNode>(std::move(udp_src),
                                               options(1, 0), src_cb);
  for (const std::uint32_t id : p->ids) {
    p->src->add_initiator(id, port_relay, config, {});
  }

  // Launch the runtimes one node at a time so each node's I/O thread can
  // be told apart from its worker.
  core::ShardedNode* nodes[3] = {p->src.get(), p->relay.get(), p->dst.get()};
  for (int node : {1, 2, 0}) {
    const std::vector<pid_t> before = list_tids();
    nodes[node]->poll(0);
    while (p->worker_tid[node].load() == 0) std::this_thread::yield();
    for (const pid_t t : list_tids()) {
      if (std::find(before.begin(), before.end(), t) != before.end()) continue;
      if (t == p->worker_tid[node].load()) {
        p->tids[node][1] = t;
      } else {
        p->tids[node][0] = t;
      }
    }
  }
  for (const std::uint32_t id : p->ids) p->src->start(id);
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (p->src->established_count() < kAssocs && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (p->src->established_count() != kAssocs) {
    throw std::runtime_error("path_udp: associations failed to establish");
  }
  return p;
}

struct ThreadSample {
  double cpu_s[3][2] = {};
  std::uint64_t invol = 0;
};

ThreadSample sample_threads(const UdpPath& p) {
  ThreadSample s;
  for (int n = 0; n < 3; ++n) {
    for (int k = 0; k < 2; ++k) {
      if (const auto u = thread_usage(p.tids[n][k])) {
        s.cpu_s[n][k] = u->cpu_s;
        s.invol += u->invol_switches;
      }
    }
  }
  return s;
}

}  // namespace

void run_path_udp(const RunOptions& opt, Report& report) {
  std::unique_ptr<UdpPath> path;
  const bool drop_one = opt.inject == "drop-message";
  const double setup_s =
      timed_setup(5, path, [&] {
        return build_path(opt.seed, drop_one, opt.seconds);
      });
  UdpPath& p = *path;

  SpanLog spans;
  const std::uint16_t submit_name = spans.name_id("core.shard.submit");
  std::vector<double> in_depth, out_depth;
  std::vector<Ack> acks;

  const auto submit = [&](std::size_t ai) {
    const std::uint64_t seq = p.submitted[ai].load(std::memory_order_relaxed);
    const std::uint64_t id = p.msg_ids.id(ai, seq + 1);
    auto payload = make_payload(opt.seed, id, now_ns(), kPayload);
    p.submitted[ai].store(seq + 1, std::memory_order_relaxed);
    const bool tracing = p.tracing.load(std::memory_order_relaxed);
    const std::uint64_t t0 = tracing ? now_ns() : 0;
    const std::uint64_t cookie = p.src->submit(p.ids[ai], std::move(payload));
    if (tracing && traced_id(id)) {
      spans.record(submit_name, id, SpanLog::kNoParent, t0, now_ns());
    }
    if (cookie != seq + 1) {
      report.error("path_udp: unexpected delivery cookie");
    }
  };
  std::uint64_t settled = 0;
  const auto settle_acks = [&](bool refill, int wait_us) {
    {
      std::unique_lock<std::mutex> lock(p.ack_mu);
      if (p.acks.empty()) {
        p.ack_cv.wait_for(lock, std::chrono::microseconds(wait_us));
      }
      acks.swap(p.acks);
    }
    for (const Ack& a : acks) {
      const std::size_t ai = p.index.at(a.assoc);
      ++settled;
      if (a.cookie == 0 || a.cookie > p.submitted[ai].load()) {
        ++p.book.unknown;
        continue;
      }
      const std::uint64_t id = p.msg_ids.id(ai, a.cookie);
      if (a.status == core::DeliveryStatus::kAcked) {
        p.book.acked(id);
      } else {
        ++p.book.bad_status;
      }
      if (refill) submit(ai);
    }
    acks.clear();
  };

  for (std::size_t k = 0; k < kWindow; ++k) {
    for (std::size_t ai = 0; ai < p.ids.size(); ++ai) submit(ai);
  }

  // Warm-up, then the measured window in 0.5 s slices. The traced run
  // measures its first half untraced and its second half traced.
  const double warmup = std::min(1.0, 0.1 * opt.seconds);
  const double half = warmup + (opt.seconds - warmup) / 2;
  const auto t0 = Clock::now();
  double window_t0 = 0, last_sample = 0;
  ThreadSample threads0;
  Slices plain(0.5), traced(0.5);
  while (true) {
    const double elapsed = seconds_since(t0);
    if (elapsed >= opt.seconds) break;
    const bool collecting = p.collecting.load();
    if (!collecting && elapsed >= warmup) {
      window_t0 = elapsed;
      threads0 = sample_threads(p);
      plain.start(elapsed, p.window_delivered.load(), process_cpu_s());
      p.lat_slice.store(0);
      p.collecting.store(true);
    }
    if (opt.trace && !p.tracing.load() && elapsed >= half) {
      traced.start(elapsed, p.window_delivered.load(), process_cpu_s());
      p.lat_slice.store(static_cast<int>(plain.size()) + 1);
      p.tracing.store(true);
    }
    settle_acks(true, 1000);
    Slices& slices = p.tracing.load() ? traced : plain;
    if (const double now = seconds_since(t0); collecting && slices.due(now)) {
      slices.close(now, p.window_delivered.load(), process_cpu_s());
      p.lat_slice.fetch_add(1);
    }
    if (p.tracing.load() && elapsed - last_sample >= 0.001) {
      last_sample = elapsed;
      for (core::ShardedNode* n : {p.src.get(), p.relay.get(), p.dst.get()}) {
        for (const auto& ss : n->shard_stats()) {
          in_depth.push_back(static_cast<double>(ss.in_depth));
          out_depth.push_back(static_cast<double>(ss.out_depth));
        }
      }
    }
  }
  p.collecting.store(false);
  p.tracing.store(false);
  p.lat_slice.store(-1);
  const double window_s = seconds_since(t0) - window_t0;
  const ThreadSample threads1 = sample_threads(p);
  const std::uint64_t measured = p.window_delivered.load();

  // Drain: no new submissions; every outstanding message must settle.
  std::vector<std::uint64_t> per_assoc;
  for (const auto& n : p.submitted) per_assoc.push_back(n.load());
  std::uint64_t submitted = 0;
  for (const std::uint64_t n : per_assoc) submitted += n;
  const auto drain_deadline = Clock::now() + std::chrono::seconds(30);
  while (settled < submitted && Clock::now() < drain_deadline) {
    settle_acks(false, 2000);
  }
  // Deliveries of the last acked messages may still be in flight on the
  // dst worker; give them a moment before reading its counters.
  const auto quiet_deadline = Clock::now() + std::chrono::seconds(5);
  while (p.delivered.load() < submitted && Clock::now() < quiet_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const core::NodeSnapshot src = p.src->snapshot();
  const core::NodeSnapshot relay = p.relay->snapshot();
  const core::NodeSnapshot dst = p.dst->snapshot();
  std::uint64_t overflows = 0;
  for (core::ShardedNode* n : {p.src.get(), p.relay.get(), p.dst.get()}) {
    for (const auto& ss : n->shard_stats()) {
      overflows += ss.in_overflows + ss.out_overflows;
    }
  }
  p.stop();  // joins all runtime threads; their data is ours from here
  p.book.check(p.msg_ids, per_assoc, report);

  // Latency quantiles per untraced slice, then the median over slices.
  std::vector<double> p50s, p99s;
  std::uint64_t lat_samples = 0;
  for (std::size_t i = 0; i < plain.size() && i < p.lat_hist.size(); ++i) {
    const LogHistogram& h = p.lat_hist[i];
    if (h.count() == 0) continue;
    lat_samples += h.count();
    p50s.push_back(h.quantile(0.5));
    p99s.push_back(h.quantile(0.99));
  }

  const double delivered = static_cast<double>(p.delivered.load());
  const std::uint64_t n_delivered = p.delivered.load();
  report.line("# slice rates (1/s):" + plain.rates_line());
  report.info("delivered_msgs", delivered, "count", n_delivered, "whole run");
  report.info("core.host.retransmits_per_msg",
              static_cast<double>(src.retransmits + dst.retransmits) /
                  delivered,
              "count", n_delivered);
  report.info("core.host.frames_per_msg",
              static_cast<double>(src.frames_out) / delivered, "count",
              n_delivered, "frames the src sends per message (batch fill)");
  report.info("core.shard.overflows_per_msg",
              static_cast<double>(overflows) / delivered, "count",
              n_delivered, "ring overflows, all nodes");
  report.info("core.shard.invol_ctx_switches_per_msg",
              static_cast<double>(threads1.invol - threads0.invol) /
                  static_cast<double>(measured),
              "count", measured, "runtime threads, measured window");
  const char* node_names[3] = {"src", "relay", "dst"};
  for (int n = 0; n < 3; ++n) {
    report.info(std::string("core.shard.") + node_names[n] + ".io_cpu_util",
                (threads1.cpu_s[n][0] - threads0.cpu_s[n][0]) / window_s,
                "ratio", measured, "I/O thread CPU / wall");
    report.info(std::string("core.shard.") + node_names[n] +
                    ".worker_cpu_util",
                (threads1.cpu_s[n][1] - threads0.cpu_s[n][1]) / window_s,
                "ratio", measured, "worker thread CPU / wall");
  }

  if (!opt.trace) {
    const std::string per_slice =
        "median over " + std::to_string(plain.size()) + " 0.5 s slices";
    report.declared("setup_s", "setup_s", setup_s, "s", 5,
                    "median of 5 path builds + 64 handshakes");
    report.declared("rate_per_s", "goodput_msgs_s", plain.median_rate(), "1/s",
                    measured, "delivered per second, " + per_slice);
    report.declared("lat_p50_us", "lat_p50_us", median(p50s), "us",
                    lat_samples, "submit to dst on_message, " + per_slice);
    report.declared("lat_p99_us", "lat_p99_us", median(p99s), "us",
                    lat_samples, per_slice);
    report.declared("cpu_us_per_op", "cpu_us_per_msg",
                    plain.median_cpu_per_op() * 1e6, "us", measured,
                    "process user+sys / delivered, " + per_slice);
    report.declared("peak_rss_mb", "peak_rss_mb", peak_rss_mb(), "MB", 1);
    return;
  }

  const double plain_rate = plain.median_rate();
  const double traced_rate = traced.median_rate();
  report.info("trace.goodput_untraced", plain_rate, "1/s", plain.size(),
              "median over 0.5 s slices");
  report.info("trace.goodput_traced", traced_rate, "1/s", traced.size());
  report.info("trace.overhead", plain_rate / traced_rate - 1.0, "ratio",
              measured, "untraced/traced - 1");
  report.info("core.shard.in_depth_p99", quantile(in_depth, 0.99), "count",
              in_depth.size(), "sampled shard_stats(), all nodes");
  report.info("core.shard.out_depth_p99", quantile(out_depth, 0.99), "count",
              out_depth.size());

  // The callback spans join the submit spans by message id.
  spans.merge(p.dst_spans);
  spans.merge(p.src_spans);
  double submit_ns = 0;
  std::uint64_t submits = 0;
  for (const auto& lt : spans.layer_times()) {
    if (lt.name == "core.shard.submit") {
      submit_ns = lt.self_ns;
      submits = lt.spans;
    }
  }
  report.info("core.shard.submit_ns", submit_ns / static_cast<double>(submits),
              "ns", submits, "ShardedNode::submit, threaded");

  CorpusSpec spec;
  spec.config = udp_config();
  spec.config.chain_length = 2 * 8 + 4;
  spec.config.rekey_threshold = 0;
  spec.assoc_ids = p.ids;
  spec.rounds = 8;
  spec.payload_mix = {{kPayload, 1}};
  spec.seed = opt.seed;
  const Corpus corpus = generate_corpus(spec);
  report_ledger(run_ledger(corpus, spans, 3), &relay.relay, report);
  report_udp_micro(run_udp_micro(median_s2_size(corpus), opt.seed),
                   median_s2_size(corpus), report);
  report_span_layers(spans, report);
  write_spans(spans, opt, "path_udp", report);
}

}  // namespace perfbench
