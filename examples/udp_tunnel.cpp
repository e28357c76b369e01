// ALPHA over real UDP sockets, on the node runtime.
//
// The same node runtime that runs in the simulator, bound to POSIX datagram
// sockets on the loopback interface via UdpTransport. With workers = 0 the
// node runs on the thread that calls poll(): poll() drains the socket,
// fires the timer wheel, and dispatches frames by association id -- so the
// one thread-local trace ring sees both transport and engine events. Node
// B pre-provisions nothing -- it accepts the inbound handshake on demand.
//
// By default both endpoints run in this process. With --role a / --role b
// each endpoint runs in its own process -- the pairing for the flight
// recorder's cross-process merge:
//
//   $ ./udp_tunnel --role b --port 47001 --flight-dir /tmp/fl-b &
//   $ ./udp_tunnel --role a --peer-port 47001 --flight-dir /tmp/fl-a
//   $ alpha_inspect --merge /tmp/fl-a,/tmp/fl-b
//
// With --metrics-port N (0 = ephemeral) the process also serves live
// /metrics and /healthz on 127.0.0.1 while the tunnel runs, and
// --serve-seconds S keeps the process (and the endpoint) alive after the
// exchange so a scraper can observe the final state.
//
//   $ ./udp_tunnel
//   $ ./udp_tunnel --metrics-port 0 --serve-seconds 5
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/sharded_node.hpp"
#include "trace/build_info.hpp"
#include "trace/flight.hpp"
#include "trace/health.hpp"
#include "trace/metrics.hpp"
#include "trace/spans.hpp"
#include "trace/telemetry.hpp"

using namespace alpha;

int main(int argc, char** argv) {
  int metrics_port = -1;  // -1 = no telemetry endpoint (default)
  int serve_seconds = 0;
  int bind_port = 0;      // 0 = ephemeral
  int peer_port = 0;      // role a: where node B listens
  std::string role = "ab";
  std::string flight_dir;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-port") == 0) {
      metrics_port = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--serve-seconds") == 0) {
      serve_seconds = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--port") == 0) {
      bind_port = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--peer-port") == 0) {
      peer_port = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--role") == 0) {
      role = argv[i + 1];
    } else if (std::strcmp(argv[i], "--flight-dir") == 0) {
      flight_dir = argv[i + 1];
    }
  }
  const bool run_a = role == "ab" || role == "a";
  const bool run_b = role == "ab" || role == "b";
  if (!run_a && !run_b) {
    std::fprintf(stderr, "--role must be a, b, or ab\n");
    return 2;
  }
  if (role == "a" && peer_port <= 0) {
    std::fprintf(stderr, "--role a needs --peer-port (node B's port)\n");
    return 2;
  }

  std::printf("== ALPHA over UDP (127.0.0.1, role %s) ==\n", role.c_str());

  core::Config config;
  config.reliable = true;
  config.rto_us = 100'000;

  // Origins 1 (A) and 2 (B) keep the two endpoints distinguishable in
  // traces even when both run in one process -- and give the merged
  // cross-process timeline stable node identities.
  std::unique_ptr<core::ShardedNode> node_a, node_b;
  bool done = false;
  std::vector<crypto::Bytes> at_b;
  if (run_a) {
    core::ShardedNode::Options a_opts;
    a_opts.workers = 0;  // caller-thread drive
    a_opts.shard.config = config;
    a_opts.shard.seed = 1;
    a_opts.shard.trace_origin = 1;
    core::ShardedNode::Callbacks a_cbs;
    a_cbs.on_delivery = [&](std::uint32_t, std::uint64_t,
                            core::DeliveryStatus status) {
      if (status == core::DeliveryStatus::kAcked) done = true;
    };
    node_a = std::make_unique<core::ShardedNode>(
        std::make_unique<net::UdpTransport>(
            role == "a" ? static_cast<std::uint16_t>(bind_port) : 0),
        a_opts, a_cbs);
  }
  if (run_b) {
    core::ShardedNode::Options b_opts;
    b_opts.workers = 0;
    b_opts.shard.config = config;
    b_opts.shard.seed = 2;
    b_opts.shard.trace_origin = 2;
    b_opts.shard.accept_inbound = true;
    core::ShardedNode::Callbacks b_cbs;
    b_cbs.on_message = [&](std::uint32_t, crypto::ByteView payload) {
      at_b.emplace_back(payload.begin(), payload.end());
    };
    node_b = std::make_unique<core::ShardedNode>(
        std::make_unique<net::UdpTransport>(
            static_cast<std::uint16_t>(bind_port)),
        b_opts, b_cbs);
  }

  const auto port = [](core::ShardedNode& n) {
    return static_cast<net::UdpTransport&>(n.transport()).port();
  };
  if (node_a) std::printf("endpoint A on port %u\n", port(*node_a));
  if (node_b) std::printf("endpoint B on port %u\n", port(*node_b));
  std::fflush(stdout);

  // Optional live telemetry: trace ring -> span builder -> registry,
  // health monitor over the local nodes' snapshots, HTTP endpoint polled
  // from the same loop that pumps the sockets (no extra thread).
  std::unique_ptr<trace::Ring> ring;
  metrics::Registry registry;
  trace::export_build_info(registry);
  trace::SpanBuilder spans{&registry};
  trace::HealthMonitor health;
  std::unique_ptr<trace::TelemetryServer> telemetry;
  const auto start_time = std::chrono::steady_clock::now();
  const auto now_us = [&] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_time)
            .count());
  };
  const auto refresh = [&] {
    if (!ring) return;
    spans.ingest_new(*ring);
    std::uint64_t frames_in = 0, frames_out = 0;
    std::vector<trace::AssocHealthSample> samples;
    const auto fold = [&](core::ShardedNode& node, bool sample_assocs) {
      const auto snap = node.snapshot(true);
      frames_in += snap.frames_in;
      frames_out += snap.frames_out;
      if (&node == node_b.get()) {
        registry.counter("alpha_messages_delivered") =
            snap.messages_delivered;
      }
      if (!sample_assocs) return;
      for (const auto& a : snap.assocs) {
        trace::AssocHealthSample s;
        s.assoc_id = a.assoc_id;
        s.established = a.established;
        s.failed = a.failed;
        s.round_active = a.round_active;
        s.round_seq = a.round_seq;
        s.round_retries = a.round_retries;
        s.rekeys_started = a.rekeys_started;
        samples.push_back(s);
      }
    };
    if (node_a) fold(*node_a, /*sample_assocs=*/true);
    if (node_b) fold(*node_b, /*sample_assocs=*/node_a == nullptr);
    registry.counter("alpha_frames_in") = frames_in;
    registry.counter("alpha_frames_out") = frames_out;
    health.observe(samples, now_us(), ring->dropped());
  };
  if (metrics_port >= 0 || !flight_dir.empty()) {
    ring = std::make_unique<trace::Ring>(1 << 14);
    trace::install(ring.get());
  }
  if (metrics_port >= 0) {
    trace::TelemetryServer::Options t_opts;
    t_opts.port = static_cast<std::uint16_t>(metrics_port);
    telemetry = std::make_unique<trace::TelemetryServer>(
        t_opts,
        [&] {
          refresh();
          return registry.render_prometheus();
        },
        [&] {
          refresh();
          return std::make_pair(health.http_status(), health.healthz_json());
        });
    if (!telemetry->ok()) {
      std::fprintf(stderr, "cannot bind metrics port %d\n", metrics_port);
      return 1;
    }
    std::fprintf(stderr, "telemetry: serving on 127.0.0.1:%u\n",
                 telemetry->port());
    std::fflush(stderr);
  }

  // Flight recorder: crash-safe spill of the event ring, one directory per
  // process. clock_origin is the transport's own clock so the recording's
  // wall epoch anchors event timestamps for the cross-process merge.
  std::unique_ptr<trace::FlightRecorder> flight;
  if (!flight_dir.empty()) {
    net::UdpTransport& clock = static_cast<net::UdpTransport&>(
        node_a ? node_a->transport() : node_b->transport());
    trace::FlightOptions fopts;
    fopts.dir = flight_dir;
    fopts.node_id = role == "b" ? 2 : 1;
    fopts.clock_origin_us = clock.now_us();
    fopts.config_digest =
        trace::fnv1a64("udp_tunnel reliable rto=100000 role=" + role);
    fopts.metrics_snapshot = [&] {
      refresh();
      return registry.render_prometheus();
    };
    flight = std::make_unique<trace::FlightRecorder>(fopts, ring.get());
    if (!flight->ok()) {
      std::fprintf(stderr, "%s\n", flight->error().c_str());
      return 1;
    }
    trace::install_crash_handlers();
  }

  if (node_a) {
    const std::uint16_t peer =
        node_b ? port(*node_b) : static_cast<std::uint16_t>(peer_port);
    node_a->add_initiator(/*assoc_id=*/1, /*peer=*/peer, config);
    node_a->start(1);
    const auto payload = crypto::as_bytes("datagram over real sockets");
    node_a->submit(1, crypto::Bytes(payload.begin(), payload.end()));
  }

  // Role b has no completion signal of its own: it pumps until a message
  // arrives (plus a grace period so the final A2 exchange settles), or
  // until the deadline.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto settle_until = deadline;
  while (std::chrono::steady_clock::now() < deadline) {
    if (node_a) node_a->poll(5);
    if (node_b) node_b->poll(5);
    if (telemetry) telemetry->poll(0);
    if (flight) flight->drain();
    if (run_a && done) break;
    if (!run_a && !at_b.empty()) {
      if (settle_until == deadline) {
        settle_until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(1500);
      } else if (std::chrono::steady_clock::now() >= settle_until) {
        break;
      }
    }
  }

  if (node_a) {
    std::printf("established: A %s\n",
                node_a->established_count() == 1 ? "yes" : "no");
  }
  if (node_b) {
    std::printf("established: B %s\n",
                node_b->established_count() == 1 ? "yes" : "no");
    for (const auto& m : at_b) {
      std::printf("B received: \"%.*s\" (authenticated%s)\n",
                  static_cast<int>(m.size()),
                  reinterpret_cast<const char*>(m.data()),
                  run_a ? (done ? ", acknowledged: yes" : ", acknowledged: no")
                        : "");
    }
    const auto snap = node_b->snapshot();
    std::printf("B runtime: frames in=%llu accepted-handshakes=%llu "
                "demux-misses=%llu\n",
                static_cast<unsigned long long>(snap.frames_in),
                static_cast<unsigned long long>(snap.accepted_handshakes),
                static_cast<unsigned long long>(snap.demux_misses));
  }
  if (telemetry && serve_seconds > 0) {
    refresh();
    std::printf("serving telemetry for %ds...\n", serve_seconds);
    const auto serve_until = std::chrono::steady_clock::now() +
                             std::chrono::seconds(serve_seconds);
    while (std::chrono::steady_clock::now() < serve_until) {
      telemetry->poll(100);
    }
  }
  if (flight) {
    flight->finalize();
    std::fprintf(stderr, "flight: %llu events -> %s\n",
                 static_cast<unsigned long long>(flight->events_written()),
                 flight_dir.c_str());
  }
  trace::install(nullptr);
  if (run_a && run_b) return at_b.size() == 1 && done ? 0 : 1;
  if (run_a) return done ? 0 : 1;
  return at_b.empty() ? 1 : 0;
}
