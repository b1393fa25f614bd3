// Replacement global operator new/delete that count allocations while armed.
//
// The zero-steady-state-allocation gates (pencil FFT, short-range kernel,
// disabled observability paths) arm the counter around the code under test
// and expect it to stay at 0:
//
//   alloc_hook::count.store(0);
//   alloc_hook::armed.store(true);
//   ...steady-state call...
//   alloc_hook::armed.store(false);
//   EXPECT_EQ(alloc_hook::count.load(), 0u);
//
// `bytes` sums the requested sizes while armed, for memory budgets (reset
// it with `count`).
//
// The replacements are global definitions: include this header from exactly
// one translation unit of a test binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace alloc_hook {
inline std::atomic<bool> armed{false};
inline std::atomic<std::size_t> count{0};
inline std::atomic<std::size_t> bytes{0};

inline void note(std::size_t size) {
  if (armed.load(std::memory_order_relaxed)) {
    count.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(size, std::memory_order_relaxed);
  }
}
}  // namespace alloc_hook

// GCC does not model user-replaced global operators and flags the
// new-from-malloc / delete-to-free pairing, which is exactly the C++
// replacement contract here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  alloc_hook::note(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  alloc_hook::note(size);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
