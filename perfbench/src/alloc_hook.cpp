// The benchmark's own global operator new/delete replacement.
//
// Counts, per thread, every heap allocation and the usable bytes allocated
// and freed, so the ledger can report allocations per relayed frame and the
// relay's resident state per association without touching the library.
// Counters are thread-local and single-writer: the owner updates them with
// relaxed load/store pairs (plain moves on x86), and another thread may
// read them while the owner runs.
#include <malloc.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace perfbench {
namespace {

thread_local AllocCounters tls_allocs;

inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t by) noexcept {
  c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size, std::size_t align) {
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size ? size : 1);
  } else {
    const std::size_t rounded = (size + align - 1) / align * align;
    p = std::aligned_alloc(align, rounded ? rounded : align);
  }
  if (p == nullptr) return nullptr;
  AllocCounters& c = tls_allocs;
  bump(c.allocs, 1);
  bump(c.bytes_allocated, malloc_usable_size(p));
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  bump(tls_allocs.bytes_freed, malloc_usable_size(p));
  std::free(p);
}

}  // namespace

AllocCounters& thread_allocs() noexcept { return tls_allocs; }

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = perfbench::counted_alloc(size, 0)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  if (void* p = perfbench::counted_alloc(size, 0)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_alloc(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_alloc(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size, 0);
}

void operator delete(void* p) noexcept { perfbench::counted_free(p); }
void operator delete[](void* p) noexcept { perfbench::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
