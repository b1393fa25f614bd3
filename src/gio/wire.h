// Fixed-width little-endian (de)serialization helpers.
//
// File headers are written field by field through these, never as raw
// struct dumps, so the on-disk layout is independent of compiler padding
// and host byte order. Bulk data arrays (float/u64/u8 SoA blocks) are
// still written raw and are *defined* to be little-endian; the writers
// static_assert a little-endian IEEE host before using that fast path.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "util/error.h"

namespace hacc::gio::wire {

inline void put_u8(std::vector<std::byte>& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}

inline void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

inline void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

inline void put_f64(std::vector<std::byte>& out, double v) {
  static_assert(sizeof(double) == 8 && std::numeric_limits<double>::is_iec559);
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Zero-padded fixed-width byte field (e.g. variable names).
inline void put_bytes_padded(std::vector<std::byte>& out, const void* data,
                             std::size_t len, std::size_t width) {
  HACC_CHECK_MSG(len <= width, "wire field exceeds its fixed width");
  const auto* p = static_cast<const std::byte*>(data);
  out.insert(out.end(), p, p + len);
  out.insert(out.end(), width - len, std::byte{0});
}

/// Sequential reader over a serialized blob; throws hacc::Error on overrun.
class Cursor {
 public:
  explicit Cursor(std::span<const std::byte> data) : data_(data) {}

  std::size_t offset() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    pos_ += 8;
    return v;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  void bytes(void* out, std::size_t n) {
    need(n);
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

 private:
  void need(std::size_t n) const {
    HACC_CHECK_MSG(pos_ + n <= data_.size(), "wire blob truncated");
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace hacc::gio::wire
