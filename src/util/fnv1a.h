// 64-bit FNV-1a, the repo's one non-cryptographic hash.
//
// Two users: the end-to-end SimMPI payload checksum (comm/message.h) and the
// SDC audit's canonical-order particle checksum (core/audit.cpp). Both catch
// the bit-flips and truncations the fault injector models; on-disk data uses
// CRC64 instead (gio/crc64.h).
#pragma once

#include <cstddef>
#include <cstdint>

namespace hacc {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// Fold `n` bytes at `data` into the running hash `h`. Chained calls hash
/// the concatenation: fnv1a(b, nb, fnv1a(a, na)) == fnv1a(ab, na + nb).
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = kFnv1aOffset) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace hacc
