// Test harness: one relay behind one interface, whichever engine backs it.
//
// The runtime relays through RelayPipeline; RelayEngine is the reference
// statement of the same decision procedure. Relay tests that construct a
// RelayUnderTest per kind run every case against both, so a check written
// once covers the engine the runtime uses and the one it is compared to.
//
// Decisions are read the way each engine reports them: the reference
// returns one per on_frame(), the pipeline reports them through its
// on_decision tap when a batch flushes. on_frame() flushes, so it returns
// this frame's decision at any batch size; feed() leaves a pipeline's batch
// open, and flush() closes it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/relay.hpp"
#include "core/relay_pipeline.hpp"

namespace alpha::core::testing {

enum class RelayKind : std::uint8_t {
  kReference,  // RelayEngine
  kPipeline,   // RelayPipeline (the runtime's relay engine)
};

inline const char* relay_kind_name(RelayKind kind) {
  return kind == RelayKind::kReference ? "RelayEngine" : "RelayPipeline";
}

constexpr RelayKind kRelayKinds[] = {RelayKind::kReference,
                                     RelayKind::kPipeline};

class RelayUnderTest {
 public:
  using ForwardFn = std::function<void(Direction, crypto::ByteView)>;
  using ExtractFn = std::function<void(std::uint32_t assoc_id,
                                       std::uint32_t seq,
                                       std::uint16_t msg_index,
                                       crypto::ByteView payload)>;

  /// `batch` only applies to the pipeline (the reference has no batches).
  RelayUnderTest(RelayKind kind, const Config& config,
                 RelayEngine::Options options = {}, ForwardFn forward = {},
                 ExtractFn on_extracted = {}, std::size_t batch = 1) {
    if (kind == RelayKind::kReference) {
      RelayEngine::Callbacks cb;
      cb.forward = std::move(forward);
      cb.on_extracted = std::move(on_extracted);
      reference_.emplace(config, options, std::move(cb));
      return;
    }
    RelayPipeline::Callbacks cb;
    cb.forward_batch = [forward = std::move(forward)](
                           const RelayPipeline::ForwardItem* items,
                           std::size_t count) {
      if (!forward) return;
      for (std::size_t i = 0; i < count; ++i) {
        forward(items[i].dir, items[i].frame);
      }
    };
    cb.on_extracted = std::move(on_extracted);
    cb.on_decision = [this](RelayDecision d, Direction, crypto::ByteView) {
      decisions_.push_back(d);
    };
    pipeline_.emplace(config, options, std::move(cb), batch);
  }

  RelayUnderTest(const RelayUnderTest&) = delete;
  RelayUnderTest& operator=(const RelayUnderTest&) = delete;

  /// Hands one frame to the relay; a pipeline may hold it until flush().
  void feed(Direction dir, crypto::ByteView frame) {
    if (reference_) {
      decisions_.push_back(reference_->on_frame(dir, frame));
    } else {
      pipeline_->enqueue(dir, frame);
    }
  }

  void flush() {
    if (pipeline_) pipeline_->flush();
  }

  /// Processes one frame to completion and returns its decision.
  RelayDecision on_frame(Direction dir, crypto::ByteView frame) {
    feed(dir, frame);
    flush();
    return decisions_.back();
  }

  /// Every decision so far, in arrival order.
  const std::vector<RelayDecision>& decisions() const { return decisions_; }

  const RelayStats& stats() const {
    return reference_ ? reference_->stats() : pipeline_->stats();
  }
  std::size_t buffered_bytes() const {
    return reference_ ? reference_->buffered_bytes()
                      : pipeline_->buffered_bytes();
  }
  std::size_t ack_buffered_bytes() const {
    return reference_ ? reference_->ack_buffered_bytes()
                      : pipeline_->ack_buffered_bytes();
  }

 private:
  std::optional<RelayEngine> reference_;
  std::optional<RelayPipeline> pipeline_;
  std::vector<RelayDecision> decisions_;
};

}  // namespace alpha::core::testing
