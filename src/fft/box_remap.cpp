#include "fft/box_remap.h"

#include <algorithm>
#include <cstring>

#include "fft/fft1d.h"

namespace hacc::fft {

namespace {

/// Minimum elements moved per pack/unpack before OpenMP threading is worth
/// the fork overhead.
constexpr std::size_t kThreadElems = 32768;

Range intersect_range(const Range& a, const Range& b) {
  const std::size_t lo = std::max(a.lo, b.lo);
  const std::size_t hi = std::min(a.hi, b.hi);
  return hi > lo ? Range{lo, hi} : Range{};
}

/// True when the pieces box ∩ others[0], box ∩ others[1], ... lie in `box`'s
/// storage as one contiguous run each, back to back in that order, so the
/// storage itself is their packed concatenation.
bool packed_in_order(const Box3D& box, const std::vector<Box3D>& others) {
  std::size_t off = 0;
  for (const Box3D& other : others) {
    const BoxRuns r = box_runs(intersect(box, other), box);
    if (r.count == 0) continue;
    if (r.count != 1 || r.base != off) return false;
    off += r.len;
  }
  return off == box.volume();
}

/// Copies every run of the pieces box ∩ others[0], box ∩ others[1], ...
/// between `boxed` (the box's storage) and `packed` (the pieces packed
/// row-major, back to back): kPack reads `boxed`, kUnpack writes it.
enum class Copy { kPack, kUnpack };
template <Copy kCopy, typename T>
void copy_pieces(const Box3D& box, const std::vector<Box3D>& others,
                 T* boxed, T* packed) {
#pragma omp parallel if (box.volume() >= kThreadElems)
  {
    std::size_t off = 0;
    for (const Box3D& other : others) {
      const BoxRuns r = box_runs(intersect(box, other), box);
#pragma omp for schedule(static) nowait
      for (std::size_t k = 0; k < r.count; ++k) {
        T* run = boxed + r.offset(k);
        T* slot = packed + off + k * r.len;
        if constexpr (kCopy == Copy::kPack) {
          std::memcpy(slot, run, r.len * sizeof(T));
        } else {
          std::memcpy(run, slot, r.len * sizeof(T));
        }
      }
      off += r.count * r.len;
    }
  }
}

}  // namespace

Box3D intersect(const Box3D& a, const Box3D& b) {
  return Box3D{intersect_range(a.x, b.x), intersect_range(a.y, b.y),
               intersect_range(a.z, b.z)};
}

BoxRuns box_runs(const Box3D& piece, const Box3D& box) {
  BoxRuns r;
  if (piece.volume() == 0) return r;
  r.y_stride = box.z.extent();
  r.x_stride = box.y.extent() * r.y_stride;
  r.base = (piece.x.lo - box.x.lo) * r.x_stride +
           (piece.y.lo - box.y.lo) * r.y_stride + (piece.z.lo - box.z.lo);
  if (piece.z.extent() < box.z.extent()) {  // one z-run per (x, y)
    r.len = piece.z.extent();
    r.per_x = piece.y.extent();
    r.count = piece.x.extent() * piece.y.extent();
  } else if (piece.y.extent() < box.y.extent()) {  // one (y, z) slab per x
    r.len = piece.y.extent() * r.y_stride;
    r.count = piece.x.extent();
  } else {  // the whole piece
    r.len = piece.volume();
    r.count = 1;
  }
  return r;
}

template <typename T>
BoxRemap<T>::BoxRemap(std::vector<Box3D> src_boxes,
                      std::vector<Box3D> dst_boxes)
    : src_(std::move(src_boxes)),
      dst_(std::move(dst_boxes)),
      moves_nothing_(src_ == dst_) {
  HACC_CHECK(src_.size() == dst_.size() && !src_.empty());
}

template <typename T>
void BoxRemap<T>::exchange(const comm::Comm& comm,
                           const std::vector<Box3D>& from,
                           const std::vector<Box3D>& to, std::vector<T>& data,
                           Buffers& buf) const {
  const auto p = static_cast<std::size_t>(comm.size());
  HACC_CHECK(p == from.size());
  const auto me = static_cast<std::size_t>(comm.rank());
  const Box3D& src = from[me];
  const Box3D& dst = to[me];
  HACC_CHECK_MSG(data.size() == src.volume(),
                 "box remap: data does not match the source box");
  if (moves_nothing_) return;

  buf.counts.resize(p);
  std::size_t total = 0;
  for (std::size_t d = 0; d < p; ++d) {
    buf.counts[d] = intersect(src, to[d]).volume();
    total += buf.counts[d];
  }
  HACC_CHECK_MSG(total == src.volume(),
                 "box remap: destination boxes do not tile the source box");
  // Receive straight into `data` when the pieces land there in order;
  // otherwise send straight from it when they leave in order. Never both:
  // the exchange cannot read and write one buffer.
  const bool land_in_place = packed_in_order(dst, from);
  const bool send_in_place = !land_in_place && packed_in_order(src, to);
  if (!send_in_place) {
    buf.send.resize(total);
    copy_pieces<Copy::kPack>(src, to, data.data(), buf.send.data());
  }
  const std::span<const T> send =
      send_in_place ? std::span<const T>(data) : std::span<const T>(buf.send);
  comm.alltoallv_into(send, std::span<const std::size_t>(buf.counts),
                      land_in_place ? data : buf.recv, buf.rcounts);

  std::size_t received = 0;
  for (std::size_t s = 0; s < p; ++s) {
    HACC_CHECK(buf.rcounts[s] == intersect(from[s], dst).volume());
    received += buf.rcounts[s];
  }
  HACC_CHECK_MSG(received == dst.volume(),
                 "box remap: source boxes do not tile the destination box");
  if (land_in_place) return;
  data.resize(dst.volume());
  copy_pieces<Copy::kUnpack>(dst, from, data.data(), buf.recv.data());
}

template <typename T>
void BoxRemap<T>::forward(const comm::Comm& comm, std::vector<T>& data,
                          Buffers& buf) const {
  exchange(comm, src_, dst_, data, buf);
}

template <typename T>
void BoxRemap<T>::backward(const comm::Comm& comm, std::vector<T>& data,
                           Buffers& buf) const {
  exchange(comm, dst_, src_, data, buf);
}

template <typename T>
std::vector<T> BoxRemap<T>::forward(const comm::Comm& comm,
                                    std::span<const T> src) const {
  Buffers buf;
  std::vector<T> data(src.begin(), src.end());
  forward(comm, data, buf);
  return data;
}

template <typename T>
std::vector<T> BoxRemap<T>::backward(const comm::Comm& comm,
                                     std::span<const T> dst) const {
  Buffers buf;
  std::vector<T> data(dst.begin(), dst.end());
  backward(comm, data, buf);
  return data;
}

template class BoxRemap<double>;
template class BoxRemap<Complex>;

}  // namespace hacc::fft
