#include "ledger.hpp"

#include <cstring>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <variant>

#include "core/relay_pipeline.hpp"
#include "crypto/hash.hpp"
#include "crypto/mac.hpp"
#include "hashchain/chain.hpp"
#include "merkle/merkle.hpp"
#include "net/transport.hpp"
#include "wire/packets.hpp"

namespace perfbench {

namespace core = alpha::core;
namespace crypto = alpha::crypto;
namespace wire = alpha::wire;
using crypto::ByteView;

namespace {

volatile std::uint64_t g_sink = 0;  // keeps timed results observable

std::uint64_t round_key(std::uint32_t assoc, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(assoc) << 32) | seq;
}

/// Checks forwarded frames against a frame list in order: each authentic
/// frame must come out once, byte-identical; a forged one never.
class ForwardChecker {
 public:
  ForwardChecker(const Corpus& corpus, ReplayResult& result)
      : corpus_(corpus), result_(result) {}

  void expect(const std::vector<Frame>& frames) {
    finish();
    frames_ = &frames;
    cursor_ = 0;
  }

  void on_forward(core::Direction dir, ByteView frame) {
    while (frames_ != nullptr && cursor_ < frames_->size()) {
      const Frame& f = (*frames_)[cursor_++];
      const bool same = f.dir == dir && f.len == frame.size() &&
                        std::memcmp(corpus_.arena.data() + f.offset,
                                    frame.data(), f.len) == 0;
      if (f.forged) {
        if (same) {
          fail("forged frame forwarded");
          return;
        }
        continue;  // dropped, as it must be
      }
      if (same) return;
      fail("authentic frame not forwarded (or forwarded out of order)");
    }
    fail("frame forwarded beyond the expected sequence");
  }

  /// Authentic frames never forwarded count as failures.
  void finish() {
    if (frames_ == nullptr) return;
    for (; cursor_ < frames_->size(); ++cursor_) {
      if (!(*frames_)[cursor_].forged) fail("authentic frame not forwarded");
    }
    frames_ = nullptr;
  }

 private:
  void fail(const char* what) {
    if (result_.failures++ == 0) result_.first_failure = what;
  }

  const Corpus& corpus_;
  ReplayResult& result_;
  const std::vector<Frame>* frames_ = nullptr;
  std::size_t cursor_ = 0;
};

}  // namespace

ReplayResult replay(const Corpus& corpus, const ReplayOptions& options) {
  ReplayResult res;
  ForwardChecker checker{corpus, res};
  AllocCounters& allocs = thread_allocs();
  const std::uint64_t live_before = allocs.live_bytes();

  SpanLog* spans = options.spans;
  std::uint16_t enqueue_name = 0, check_name = 0;
  if (spans != nullptr) {
    enqueue_name = spans->name_id("core.relay.enqueue");
    check_name = spans->name_id("bench.check");
  }
  std::uint32_t current_span = SpanLog::kNoParent;
  std::uint64_t current_id = 0;

  core::RelayPipeline::Callbacks cb;
  cb.forward_batch = [&](const core::RelayPipeline::ForwardItem* items,
                         std::size_t n) {
    const std::uint64_t t0 = spans != nullptr ? now_ns() : 0;
    for (std::size_t i = 0; i < n; ++i) {
      checker.on_forward(items[i].dir, items[i].frame);
    }
    if (spans != nullptr) {
      spans->record(check_name, current_id, current_span, t0, now_ns());
    }
  };
  core::RelayPipeline pipe{corpus.config, {}, std::move(cb), options.batch};

  checker.expect(corpus.handshakes);
  for (const Frame& f : corpus.handshakes) pipe.enqueue(f.dir, corpus.bytes(f));
  pipe.flush();
  checker.expect(corpus.schedule);
  const core::RelayStats before = pipe.stats();

  const std::vector<Frame>& sched = corpus.schedule;
  const std::size_t n = sched.size();
  const std::size_t batch = pipe.batch_capacity();
  if (options.time_batches) res.batch_us.reserve(n / batch + 1);
  const std::uint64_t allocs_before = allocs.alloc_count();
  const double cpu0 = thread_cpu_s();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n;) {
    const std::size_t end = std::min(i + batch, n);
    const std::uint64_t tb = options.time_batches ? now_ns() : 0;
    for (; i < end; ++i) {
      const Frame& f = sched[i];
      // One frame in eight gets a span; with batch 32 that includes every
      // frame whose enqueue runs the flush, so the forward callback's span
      // always has its enqueue span as parent.
      if (spans != nullptr && i % 8 == 7) {
        current_id = i;
        current_span = spans->open(enqueue_name, i, SpanLog::kNoParent,
                                   now_ns());
        pipe.enqueue(f.dir, corpus.bytes(f));
        spans->close(current_span, now_ns());
      } else {
        current_span = SpanLog::kNoParent;
        pipe.enqueue(f.dir, corpus.bytes(f));
      }
    }
    if (options.time_batches) {
      res.batch_us.push_back(static_cast<double>(now_ns() - tb) * 1e-3);
    }
  }
  pipe.flush();
  res.seconds = seconds_since(t0);
  res.cpu_s = thread_cpu_s() - cpu0;
  res.allocs = allocs.alloc_count() - allocs_before;
  checker.finish();
  res.frames = n;
  res.relay = pipe.stats();
  res.dropped = (res.relay.dropped_invalid + res.relay.dropped_unsolicited) -
                (before.dropped_invalid + before.dropped_unsolicited);
  res.relay.hashes.signature -= before.hashes.signature;
  res.relay.hashes.chain_verify -= before.hashes.chain_verify;
  res.relay.hashes.ack -= before.hashes.ack;
  res.relay.hashes.chain_create -= before.hashes.chain_create;
  res.state_bytes = static_cast<std::int64_t>(allocs.live_bytes()) -
                    static_cast<std::int64_t>(live_before);
  return res;
}

// ---------------------------------------------------------------- ledger --

namespace {

struct ChainOp {
  std::uint32_t assoc;
  bool ack;     // ack chain (A1/A2) vs signature chain (S1/S2)
  bool derive;  // accept_or_derive (disclosures) vs accept (S1)
  crypto::Digest element;
  std::size_t index;
};

struct AuthOp {
  std::uint32_t round;
  wire::S2View view;  // borrows the corpus arena
};

struct RoundInfo {
  crypto::Digest key;  // disclosed MAC key / tree key
  std::vector<crypto::Digest> macs;
  crypto::Digest root;
};

/// Times `body` `reps` times, one child span of the ledger span per rep.
template <typename Body>
void timed(SpanLog& spans, std::uint32_t root, int reps,
           const std::string& name, Body&& body) {
  const std::uint16_t id = spans.name_id(name);
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t t0 = now_ns();
    body();
    spans.record(id, static_cast<std::uint64_t>(rep), root, t0, now_ns());
  }
}

double per_call(const SpanLog& spans, const std::string& name,
                double calls) {
  for (const auto& lt : spans.layer_times()) {
    if (lt.name == name && calls > 0) return lt.self_ns / calls;
  }
  return 0.0;
}

}  // namespace

Ledger run_ledger(const Corpus& c, SpanLog& spans, int reps) {
  Ledger L;
  const crypto::HashAlgo algo = c.config.algo;
  const bool tree_mode = c.config.uses_trees();
  std::vector<ByteView> all, s2s, controls;
  std::vector<ChainOp> chain_ops;
  std::vector<AuthOp> auth_ops;
  std::vector<RoundInfo> rounds;
  std::unordered_map<std::uint64_t, std::uint32_t> round_index;

  const auto round_of = [&](std::uint32_t assoc, std::uint32_t seq) {
    const auto [it, fresh] = round_index.try_emplace(
        round_key(assoc, seq), static_cast<std::uint32_t>(rounds.size()));
    if (fresh) rounds.emplace_back();
    return it->second;
  };
  std::unordered_map<std::uint64_t, bool> ack_seen;
  for (const Frame& f : c.schedule) {
    const ByteView bytes = c.bytes(f);
    all.push_back(bytes);
    if (f.kind == FrameKind::kS2) {
      s2s.push_back(bytes);
      const auto view = wire::parse_s2(bytes);
      if (!view.has_value()) throw std::runtime_error("ledger: bad S2");
      const std::uint32_t r = round_of(f.assoc, f.seq);
      if (rounds[r].key.empty()) {
        rounds[r].key = view->disclosed_element;
        chain_ops.push_back(
            {f.assoc, false, true, view->disclosed_element, view->chain_index});
      }
      auth_ops.push_back({r, *view});
      continue;
    }
    controls.push_back(bytes);
    const auto pkt = wire::decode(bytes);
    if (!pkt.has_value()) throw std::runtime_error("ledger: bad frame");
    if (const auto* s1 = std::get_if<wire::S1Packet>(&*pkt)) {
      RoundInfo& info = rounds[round_of(f.assoc, f.seq)];
      info.macs = s1->macs;
      info.root = s1->merkle_root;
      chain_ops.push_back(
          {f.assoc, false, false, s1->chain_element, s1->chain_index});
    } else if (const auto* a1 = std::get_if<wire::A1Packet>(&*pkt)) {
      chain_ops.push_back(
          {f.assoc, true, true, a1->ack_element, a1->ack_chain_index});
    } else if (const auto* a2 = std::get_if<wire::A2Packet>(&*pkt)) {
      if (ack_seen.try_emplace(round_key(f.assoc, f.seq), true).second) {
        chain_ops.push_back({f.assoc, true, true, a2->disclosed_ack_element,
                             a2->ack_chain_index});
      }
    }
  }
  L.frames = all.size();

  const std::uint32_t root =
      spans.open(spans.name_id("ledger"), 0, SpanLog::kNoParent, now_ns());

  std::uint64_t sink = 0;
  timed(spans, root, reps, "wire.peek", [&] {
    for (const ByteView f : all) {
      sink += wire::peek_assoc_id(f).value_or(0);
      sink += static_cast<std::uint64_t>(
          wire::peek_type(f).value_or(wire::PacketType::kS1));
    }
  });
  timed(spans, root, reps, "wire.crc", [&] {
    for (const ByteView f : all) {
      sink += wire::frame_checksum(f.first(f.size() - wire::kFrameChecksumSize));
    }
  });
  timed(spans, root, reps, "wire.parse_s2", [&] {
    for (const ByteView f : s2s) sink += wire::parse_s2(f)->msg_index;
  });
  std::uint64_t decode_allocs = 0;
  timed(spans, root, reps, "wire.decode", [&] {
    const std::uint64_t a0 = thread_allocs().alloc_count();
    for (const ByteView f : controls) sink += wire::decode(f).has_value();
    decode_allocs += thread_allocs().alloc_count() - a0;
  });

  std::uint64_t chain_failures = 0;
  {
    // Fresh verifiers per rep (state advances), built outside the span.
    std::vector<std::vector<alpha::hashchain::ChainVerifier>> sig(reps), ack(reps);
    for (int rep = 0; rep < reps; ++rep) {
      for (const AssocAnchors& a : c.anchors) {
        sig[rep].emplace_back(algo, alpha::hashchain::ChainTagging::kRoleBound,
                              a.sig_anchor, a.sig_index, c.config.max_gap);
        ack[rep].emplace_back(algo, alpha::hashchain::ChainTagging::kRoleBound,
                              a.ack_anchor, a.ack_index, c.config.max_gap);
      }
    }
    int rep = 0;
    timed(spans, root, reps, "hashchain.verify", [&] {
      for (const ChainOp& op : chain_ops) {
        auto& v = op.ack ? ack[rep][op.assoc] : sig[rep][op.assoc];
        const bool ok = op.derive ? v.accept_or_derive(op.element, op.index)
                                  : v.accept(op.element, op.index);
        chain_failures += ok ? 0 : 1;
      }
      ++rep;
    });
  }

  // Payload MAC per S2 under its round's key; the key schedule is built on
  // the round's first S2, as the relay does.
  std::uint64_t mac_rejects = 0;
  timed(spans, root, reps, "crypto.mac", [&] {
    std::vector<std::optional<crypto::MacContext>> ctx(rounds.size());
    for (const AuthOp& op : auth_ops) {
      auto& m = ctx[op.round];
      if (!m.has_value()) {
        m.emplace(c.config.mac_kind, algo, rounds[op.round].key.view());
      }
      const RoundInfo& info = rounds[op.round];
      if (!tree_mode) {
        mac_rejects +=
            m->verify(op.view.payload, info.macs[op.view.msg_index]) ? 0 : 1;
      } else {
        sink += m->mac(op.view.payload).data()[0];
      }
    }
  });
  std::uint64_t branch_rejects = 0;
  if (tree_mode) {
    timed(spans, root, reps, "merkle.payload_branch", [&] {
      alpha::merkle::AuthPath path;
      for (const AuthOp& op : auth_ops) {
        const RoundInfo& info = rounds[op.round];
        const crypto::Digest leaf = crypto::hash(algo, op.view.payload);
        op.view.path_into(path);
        branch_rejects += alpha::merkle::MerkleTree::verify_keyed(
                              algo, info.key.view(), leaf, path, info.root)
                              ? 0
                              : 1;
      }
    });
  }

  constexpr int kHashIters = 100'000;
  timed(spans, root, reps, "crypto.hash20", [&] {
    crypto::Digest d = crypto::hash(crypto::HashAlgo::kSha1,
                                    c.sample_payloads.front());
    for (int i = 0; i < kHashIters; ++i) {
      d = crypto::hash(crypto::HashAlgo::kSha1, d.view());
    }
    sink += d.data()[0];
  });

  // Merkle terms on the workload's own payloads: a 16-leaf tree and its
  // keyed branches.
  std::vector<crypto::Bytes> leaves;
  for (std::size_t i = 0; i < 16; ++i) {
    leaves.push_back(c.sample_payloads[i % c.sample_payloads.size()]);
  }
  constexpr int kTreeIters = 200;
  timed(spans, root, reps, "merkle.build", [&] {
    for (int i = 0; i < kTreeIters; ++i) {
      const alpha::merkle::MerkleTree tree{algo, leaves};
      sink += tree.root().data()[0];
    }
  });
  const alpha::merkle::MerkleTree tree{algo, leaves};
  const crypto::Digest key = c.anchors.front().sig_anchor;
  const crypto::Digest keyed_root = tree.keyed_root(key.view());
  std::vector<alpha::merkle::AuthPath> paths;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    paths.push_back(tree.auth_path(i));
  }
  std::uint64_t tree_rejects = 0;
  timed(spans, root, reps, "merkle.verify", [&] {
    for (int i = 0; i < kTreeIters; ++i) {
      for (std::size_t j = 0; j < paths.size(); ++j) {
        tree_rejects += alpha::merkle::MerkleTree::verify_keyed(
                            algo, key.view(), tree.leaf(j), paths[j],
                            keyed_root)
                            ? 0
                            : 1;
      }
    }
  });

  // The replay the terms are set against.
  std::vector<double> replay_ns;
  ReplayResult last;
  timed(spans, root, reps, "core.relay.replay", [&] {
    last = replay(c, ReplayOptions{});
    replay_ns.push_back(last.seconds * 1e9 / static_cast<double>(last.frames));
  });
  spans.close(root, now_ns());
  g_sink = sink;

  const double r = reps;
  const double frames = static_cast<double>(L.frames);
  L.peek_ns = per_call(spans, "wire.peek", r * frames);
  L.crc_ns = per_call(spans, "wire.crc", r * frames);
  L.parse_s2_ns = per_call(spans, "wire.parse_s2", r * s2s.size());
  L.decode_ns = per_call(spans, "wire.decode", r * controls.size());
  L.decode_allocs = controls.empty() ? 0
                                     : static_cast<double>(decode_allocs) /
                                           (r * controls.size());
  L.chain_verify_ns = per_call(spans, "hashchain.verify", r * chain_ops.size());
  L.mac_ns = per_call(spans, "crypto.mac", r * auth_ops.size());
  L.payload_auth_ns =
      tree_mode ? per_call(spans, "merkle.payload_branch", r * auth_ops.size())
                : L.mac_ns;
  L.hash20_ns = per_call(spans, "crypto.hash20", r * kHashIters);
  L.merkle_build_ns = per_call(spans, "merkle.build", r * kTreeIters);
  L.merkle_verify_ns =
      per_call(spans, "merkle.verify", r * kTreeIters * paths.size());

  L.terms_per_frame =
      (L.peek_ns * frames + L.parse_s2_ns * s2s.size() +
       L.decode_ns * controls.size() + L.chain_verify_ns * chain_ops.size() +
       L.payload_auth_ns * auth_ops.size()) /
      frames;
  L.ns_per_frame = median(replay_ns);
  L.unexplained_ns = L.ns_per_frame - L.terms_per_frame;
  L.allocs_per_frame = static_cast<double>(last.allocs) / frames;
  L.state_bytes_per_assoc =
      static_cast<double>(last.state_bytes) / static_cast<double>(c.anchors.size());
  L.hashes_per_frame = static_cast<double>(last.relay.hashes.total()) / frames;
  L.hashes_per_msg =
      static_cast<double>(c.signer_hashes.total() + c.verifier_hashes.total() +
                          last.relay.hashes.total()) /
      static_cast<double>(c.messages);
  L.drop_ratio = static_cast<double>(last.dropped) / frames;
  const auto& vb = last.relay.verify_batch_ns;
  L.frames_per_flush = vb.count() == 0 ? 0.0
                                       : static_cast<double>(
                                             last.relay.verify_batch_frames) /
                                             static_cast<double>(vb.count());
  L.verify_batch_p50_ns = vb.count() == 0 ? 0.0 : vb.quantile(0.5);
  L.budget_ns = L.hashes_per_frame * L.hash20_ns;
  L.budget_ratio = L.budget_ns > 0 ? L.ns_per_frame / L.budget_ns : 0.0;

  if (chain_failures != 0) L.notes.push_back("chain verifier rejected ops");
  const std::uint64_t forged_checks = c.forged_frames * static_cast<std::uint64_t>(reps);
  if (!tree_mode && mac_rejects != forged_checks) {
    L.notes.push_back("MAC rejects differ from the forged count");
  }
  if (tree_mode && branch_rejects != forged_checks) {
    L.notes.push_back("branch rejects differ from the forged count");
  }
  if (tree_rejects != 0) L.notes.push_back("Merkle branch rejected");
  if (last.failures != 0) {
    L.notes.push_back("ledger replay: " + last.first_failure);
  }
  return L;
}

void report_ledger(const Ledger& L, const core::RelayStats* live,
                   Report& report) {
  const std::uint64_t n = L.frames;
  report.declared("wire.peek_ns", "wire.peek_ns", L.peek_ns, "ns", n);
  report.declared("wire.crc_ns", "wire.crc_ns", L.crc_ns, "ns", n,
                  "frame_checksum; also inside parse_s2/decode");
  report.declared("wire.parse_s2_ns", "wire.parse_s2_ns", L.parse_s2_ns, "ns",
                  n);
  report.declared("wire.decode_ns", "wire.decode_ns", L.decode_ns, "ns", n,
                  "S1/A1/A2 control frames");
  report.declared("wire.decode_allocs", "wire.decode_allocs", L.decode_allocs,
                  "count", n, "per control frame");
  report.declared("hashchain.verify_ns", "hashchain.verify_ns",
                  L.chain_verify_ns, "ns", n, "per ChainVerifier call");
  report.declared("crypto.mac_ns", "crypto.mac_ns", L.mac_ns, "ns", n,
                  "payload MAC per S2");
  report.info("core.relay.payload_auth_ns", L.payload_auth_ns, "ns", n,
              "MAC (ALPHA-C) or leaf hash + keyed branch (ALPHA-M) per S2");
  report.declared("crypto.hash20_ns", "crypto.hash20_ns", L.hash20_ns, "ns",
                  n, "SHA-1 of 20 B");
  report.declared("crypto.hashes_per_frame", "crypto.hashes_per_frame",
                  L.hashes_per_frame, "count", n, "RelayStats.hashes");
  report.declared("crypto.hashes_per_msg", "crypto.hashes_per_msg",
                  L.hashes_per_msg, "count", n,
                  "signer + verifier + relay of the ledger corpus");
  report.declared("merkle.build_ns", "merkle.build_ns", L.merkle_build_ns,
                  "ns", n, "16 leaves");
  report.declared("merkle.verify_ns", "merkle.verify_ns", L.merkle_verify_ns,
                  "ns", n, "one keyed branch");
  report.declared("core.relay.ns_per_frame", "core.relay.ns_per_frame",
                  L.ns_per_frame, "ns", n, "ledger replay median");
  report.info("core.relay.ledger_terms_ns", L.terms_per_frame, "ns", n,
              "peek + parse/decode + chain + payload auth, per frame");
  report.declared("core.relay.unexplained_ns", "core.relay.unexplained_ns",
                  L.unexplained_ns, "ns", n, "ns_per_frame - ledger terms");
  report.info("core.relay.budget_ns", L.budget_ns, "ns", n,
              "paper budget: hashes_per_frame x hash20_ns");
  report.declared("core.relay.budget_ratio", "core.relay.budget_ratio",
                  L.budget_ratio, "ratio", n, "ns_per_frame / budget_ns");
  report.declared("core.relay.allocs_per_frame", "core.relay.allocs_per_frame",
                  L.allocs_per_frame, "count", n);
  report.declared("core.relay.state_bytes_per_assoc",
                  "core.relay.state_bytes_per_assoc", L.state_bytes_per_assoc,
                  "B", n, "live heap after replay / associations");
  report.info("core.relay.drop_ratio", L.drop_ratio, "ratio", n,
              "ledger replay drops / frames");
  double per_flush = L.frames_per_flush;
  double p50 = L.verify_batch_p50_ns;
  std::uint64_t flushes = n;
  if (live != nullptr && live->verify_batch_ns.count() > 0) {
    flushes = live->verify_batch_ns.count();
    per_flush = static_cast<double>(live->verify_batch_frames) /
                static_cast<double>(flushes);
    p50 = live->verify_batch_ns.quantile(0.5);
  }
  const std::string from = live != nullptr ? "live relay" : "ledger replay";
  report.declared("core.relay.frames_per_flush", "core.relay.frames_per_flush",
                  per_flush, "count", flushes, from);
  report.declared("core.relay.verify_batch_p50_ns",
                  "core.relay.verify_batch_p50_ns", p50, "ns", flushes, from);
  for (const auto& note : L.notes) report.error("ledger: " + note);
  report.line("# paper budget: core.relay.ns_per_frame=" +
              std::to_string(L.ns_per_frame) + " ns  vs  " +
              std::to_string(L.hashes_per_frame) + " hashes x " +
              std::to_string(L.hash20_ns) + " ns = " +
              std::to_string(L.budget_ns) + " ns  (ratio " +
              std::to_string(L.budget_ratio) + ")");
}

// ------------------------------------------------------------ UDP micro --

UdpMicro run_udp_micro(std::size_t frame_size, std::uint64_t seed) {
  UdpMicro m;
  alpha::net::UdpTransport a, b;
  crypto::Bytes frame(frame_size);
  fill_bytes(seed, 0xffff, frame.data(), frame.size());
  alpha::net::RxFrame rx[32];

  constexpr int kPings = 2000;
  std::vector<double> hops;
  hops.reserve(kPings);
  for (int i = 0; i < kPings; ++i) {
    const std::uint64_t t0 = now_ns();
    const alpha::net::TxFrame ping{b.port(), frame};
    a.send_batch(&ping, 1);
    if (b.recv_batch(200, rx, 1) != 1) continue;
    const alpha::net::TxFrame pong{a.port(), rx[0].data};
    b.send_batch(&pong, 1);
    if (a.recv_batch(200, rx, 1) != 1) continue;
    hops.push_back(static_cast<double>(now_ns() - t0) * 1e-3 / 2.0);
  }
  m.hop_us = median(hops);
  m.hop_samples = hops.size();

  constexpr int kBatches = 400;
  std::vector<alpha::net::TxFrame> burst(32, {b.port(), frame});
  std::vector<double> per_frame;
  per_frame.reserve(kBatches);
  for (int i = 0; i < kBatches; ++i) {
    const std::uint64_t t0 = now_ns();
    const std::size_t sent = a.send_batch(burst.data(), burst.size());
    const std::uint64_t t1 = now_ns();
    if (sent > 0) {
      per_frame.push_back(static_cast<double>(t1 - t0) /
                          static_cast<double>(sent));
    }
    std::size_t got = 0;
    while (got < sent) {
      const std::size_t k = b.recv_batch(50, rx, 32);
      if (k == 0) break;
      got += k;
    }
  }
  m.send_batch_ns_per_frame = median(per_frame);
  m.batch_samples = per_frame.size();
  return m;
}

void report_udp_micro(const UdpMicro& micro, std::size_t frame_size,
                      Report& report) {
  const std::string note = std::to_string(frame_size) + " B frames";
  report.declared("net.udp.hop_us", "net.udp.hop_us", micro.hop_us, "us",
                  micro.hop_samples, "bare UdpTransport ping-pong, " + note);
  report.declared("net.udp.send_batch_ns_per_frame",
                  "net.udp.send_batch_ns_per_frame",
                  micro.send_batch_ns_per_frame, "ns", micro.batch_samples,
                  "32-frame send_batch, " + note);
}

std::size_t median_s2_size(const Corpus& corpus) {
  std::vector<double> sizes;
  for (const Frame& f : corpus.schedule) {
    if (f.kind == FrameKind::kS2) sizes.push_back(f.len);
  }
  return static_cast<std::size_t>(median(sizes));
}

}  // namespace perfbench
