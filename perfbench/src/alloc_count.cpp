// Counting replacement of the global allocation functions.  Every
// operator new in the benchmark binary (the library included) lands here;
// it counts only while the traced rounds switch counting on, and otherwise
// costs one relaxed load over plain malloc.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};

inline void note(std::size_t n) {
  if (g_on.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* aligned(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

}  // namespace

namespace perfbench {

void set_alloc_counting(bool on) {
  g_on.store(on, std::memory_order_relaxed);
}

AllocCounts alloc_counts() {
  return {g_count.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

void* operator new(std::size_t n) {
  note(n);
  return checked(std::malloc(n == 0 ? 1 : n));
}
void* operator new[](std::size_t n) {
  note(n);
  return checked(std::malloc(n == 0 ? 1 : n));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  note(n);
  return checked(aligned(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  note(n);
  return checked(aligned(n, al));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
