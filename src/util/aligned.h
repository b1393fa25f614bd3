// Cache-line / SIMD aligned storage.
//
// HACC's BG/Q force kernel requires neighbor lists in contiguous, aligned
// buffers so the inner loop can use vector loads (paper, Sec. III). We use a
// 64-byte alignment everywhere, which satisfies any SIMD width on current
// hardware and matches typical cache-line size.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

namespace hacc {

/// Alignment (bytes) used for particle and neighbor-list buffers.
inline constexpr std::size_t kAlignment = 64;

/// Minimal C++17 aligned allocator; state-free so vectors are swappable.
template <typename T, std::size_t Align = kAlignment>
struct AlignedAllocator {
  using value_type = T;
  // Explicit rebind: required because Align is a non-type parameter, which
  // allocator_traits cannot rebind automatically.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new(n * sizeof(T), std::align_val_t(Align));
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
};

/// Vector with 64-byte-aligned storage; the standard container for all
/// particle component arrays in this codebase.
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

/// AlignedAllocator whose value-less construct() default-initializes, so
/// resize() leaves new trivial elements unset instead of zeroing them: for
/// scratch that is always written before it is read.
template <typename T, std::size_t Align = kAlignment>
struct ScratchAllocator : AlignedAllocator<T, Align> {
  template <typename U>
  struct rebind {
    using other = ScratchAllocator<U, Align>;
  };

  ScratchAllocator() noexcept = default;
  template <typename U>
  ScratchAllocator(const ScratchAllocator<U, Align>&) noexcept {}

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Aligned vector whose resize() does not zero: the neighbor lists, which
/// are resized and then filled.
template <typename T>
using scratch_vector = std::vector<T, ScratchAllocator<T>>;

/// True if `p` is aligned to `Align` bytes.
inline bool is_aligned(const void* p, std::size_t align = kAlignment) {
  return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

}  // namespace hacc
