// Stack-allocated hash context.
//
// make_hasher() heap-allocates a polymorphic Hasher -- fine for long-lived
// streaming use, but ALPHA's per-packet work is a storm of tiny one-shot
// hashes where that allocation dominates. HasherCtx holds the concrete
// hasher in a std::variant on the stack, so one-shot and hot-loop callers
// never touch the heap. The one-shot helpers in hash.hpp use it internally.
#pragma once

#include <variant>

#include "crypto/hash.hpp"
#include "crypto/mmo.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"

namespace alpha::crypto {

class HasherCtx {
 public:
  explicit HasherCtx(HashAlgo algo) : impl_(std::in_place_type<Sha1>) {
    switch (algo) {
      case HashAlgo::kSha1: break;  // already constructed
      case HashAlgo::kSha256: impl_.emplace<Sha256>(); break;
      case HashAlgo::kMmo128: impl_.emplace<MmoHash>(); break;
    }
  }

  void reset() noexcept {
    std::visit([](auto& h) { h.reset(); }, impl_);
  }
  void update(ByteView data) noexcept {
    std::visit([&](auto& h) { h.update(data); }, impl_);
  }
  Digest finalize() noexcept {
    return std::visit([](auto& h) { return h.finalize(); }, impl_);
  }

  std::size_t digest_size() const noexcept {
    return std::visit([](const auto& h) { return h.digest_size(); }, impl_);
  }
  HashAlgo algo() const noexcept {
    return std::visit([](const auto& h) { return h.algo(); }, impl_);
  }

 private:
  std::variant<Sha1, Sha256, MmoHash> impl_;
};

}  // namespace alpha::crypto
