// Test harness: queued frame delivery between protocol engines, plus the
// seed-replay hooks used by the chaos/property tests.
//
// Delivering frames synchronously from inside a send callback would re-enter
// the engines (signer -> verifier -> signer ...) while their state is mid-
// update. The bus queues frames and drains them iteratively, like a real
// transport. Hooks allow dropping or tampering frames in flight.
//
// Seed replay: randomized tests draw their seed via chaos_seed(fallback) and
// register a SeedReporter. On failure the seed is printed; exporting it as
// ALPHA_TEST_SEED reruns the exact same fault schedule bit for bit.
#pragma once

#include <deque>
#include <functional>

#include "../support/seed.hpp"
#include "core/host.hpp"
#include "wire/packets.hpp"

namespace alpha::core::testing {

using alpha::testing::SeedReporter;
using alpha::testing::chaos_seed;

/// Recomputes the CRC trailer of an encoded frame over its current body,
/// so a tampered frame passes the checksum and the corruption reaches the
/// parser and the MAC / Merkle layer instead of dying in unseal() (which
/// is what raw bit flips do -- see wire::kFrameChecksumSize).
inline void reseal(crypto::Bytes& frame) {
  if (frame.size() <= wire::kFrameChecksumSize) return;
  const std::size_t body_len = frame.size() - wire::kFrameChecksumSize;
  const std::uint32_t crc =
      wire::frame_checksum(crypto::ByteView{frame.data(), body_len});
  for (std::size_t i = 0; i < wire::kFrameChecksumSize; ++i) {
    frame[body_len + i] = static_cast<std::uint8_t>(crc >> (24 - 8 * i));
  }
}

/// XORs `mask` into the last body byte of an encoded frame and reseals it,
/// yielding a wire-valid frame with forged content.
inline void tamper_and_reseal(crypto::Bytes& frame, std::uint8_t mask = 1) {
  frame[frame.size() - wire::kFrameChecksumSize - 1] ^= mask;
  reseal(frame);
}

class PacketBus {
 public:
  using Hook = std::function<bool(crypto::Bytes&)>;  // false = drop frame

  /// Returns a send callback that enqueues frames toward `destination`.
  std::function<void(crypto::Bytes)> sender(int destination) {
    return [this, destination](crypto::Bytes frame) {
      queue_.push_back({destination, std::move(frame)});
    };
  }

  /// Registers the frame consumer for an endpoint id.
  void attach(int id, std::function<void(crypto::ByteView)> consumer) {
    consumers_[id] = std::move(consumer);
  }

  /// Hook applied to every frame before delivery (tamper/drop).
  void set_hook(Hook hook) { hook_ = std::move(hook); }

  /// Delivers queued frames until quiescent. Returns frames delivered.
  std::size_t pump(std::size_t max_frames = 100000) {
    std::size_t delivered = 0;
    while (!queue_.empty() && delivered < max_frames) {
      auto [dest, frame] = std::move(queue_.front());
      queue_.pop_front();
      if (hook_ && !hook_(frame)) continue;
      const auto it = consumers_.find(dest);
      if (it != consumers_.end()) it->second(frame);
      ++delivered;
    }
    return delivered;
  }

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

 private:
  std::deque<std::pair<int, crypto::Bytes>> queue_;
  std::map<int, std::function<void(crypto::ByteView)>> consumers_;
  Hook hook_;
};

}  // namespace alpha::core::testing
