#include "mesh/remap.h"

#include <algorithm>
#include <cstring>

namespace hacc::mesh {

namespace {

fft::Range intersect_range(const fft::Range& a, const fft::Range& b) {
  const std::size_t lo = std::max(a.lo, b.lo);
  const std::size_t hi = std::min(a.hi, b.hi);
  return hi > lo ? fft::Range{lo, hi} : fft::Range{0, 0};
}

/// Row-major flat index of global cell (x,y,z) within `box`.
std::size_t flat_index(const fft::Box3D& box, std::size_t x, std::size_t y,
                       std::size_t z) {
  return ((x - box.x.lo) * box.y.extent() + (y - box.y.lo)) * box.z.extent() +
         (z - box.z.lo);
}

}  // namespace

fft::Box3D intersect(const fft::Box3D& a, const fft::Box3D& b) {
  return fft::Box3D{intersect_range(a.x, b.x), intersect_range(a.y, b.y),
                    intersect_range(a.z, b.z)};
}

Redistributor::Redistributor(std::vector<fft::Box3D> src_boxes,
                             std::vector<fft::Box3D> dst_boxes)
    : src_(std::move(src_boxes)), dst_(std::move(dst_boxes)) {
  HACC_CHECK(src_.size() == dst_.size() && !src_.empty());
}

void Redistributor::exchange(comm::Comm& comm, std::span<const double> in,
                             const std::vector<fft::Box3D>& from,
                             const std::vector<fft::Box3D>& to,
                             std::vector<double>& out, Buffers& buf) const {
  const auto p = static_cast<std::size_t>(comm.size());
  HACC_CHECK(p == from.size());
  const auto r = static_cast<std::size_t>(comm.rank());
  const fft::Box3D& mine_from = from[r];
  const fft::Box3D& mine_to = to[r];
  HACC_CHECK_MSG(in.size() == mine_from.volume(),
                 "redistribute: input size does not match source box");

  // Pack: for each destination, the intersection of my source box with its
  // destination box, in row-major order of the intersection, one memcpy
  // per (x, y) z-run.
  buf.counts.resize(p);
  std::size_t total = 0;
  for (std::size_t d = 0; d < p; ++d) {
    buf.counts[d] = intersect(mine_from, to[d]).volume();
    total += buf.counts[d];
  }
  HACC_CHECK_MSG(total == in.size(),
                 "redistribute: destination boxes do not tile the source box");
  buf.send.resize(total);
  std::size_t off = 0;
  for (std::size_t d = 0; d < p; ++d) {
    const fft::Box3D ov = intersect(mine_from, to[d]);
    if (ov.volume() == 0) continue;
    const std::size_t run = ov.z.extent();
    for (std::size_t x = ov.x.lo; x < ov.x.hi; ++x)
      for (std::size_t y = ov.y.lo; y < ov.y.hi; ++y, off += run)
        std::memcpy(buf.send.data() + off,
                    in.data() + flat_index(mine_from, x, y, ov.z.lo),
                    run * sizeof(double));
  }

  comm.alltoallv_into(std::span<const double>(buf.send),
                      std::span<const std::size_t>(buf.counts), buf.recv,
                      buf.rcounts);

  out.resize(mine_to.volume());
  off = 0;
  for (std::size_t s = 0; s < p; ++s) {
    const fft::Box3D ov = intersect(from[s], mine_to);
    HACC_CHECK(buf.rcounts[s] == ov.volume());
    if (ov.volume() == 0) continue;
    const std::size_t run = ov.z.extent();
    for (std::size_t x = ov.x.lo; x < ov.x.hi; ++x)
      for (std::size_t y = ov.y.lo; y < ov.y.hi; ++y, off += run)
        std::memcpy(out.data() + flat_index(mine_to, x, y, ov.z.lo),
                    buf.recv.data() + off, run * sizeof(double));
  }
  HACC_CHECK_MSG(off == out.size(),
                 "redistribute: source boxes do not tile the destination box");
}

void Redistributor::forward(comm::Comm& comm, std::span<const double> src,
                            std::vector<double>& out, Buffers& buf) const {
  exchange(comm, src, src_, dst_, out, buf);
}

void Redistributor::backward(comm::Comm& comm, std::span<const double> dst,
                             std::vector<double>& out, Buffers& buf) const {
  exchange(comm, dst, dst_, src_, out, buf);
}

std::vector<double> Redistributor::forward(comm::Comm& comm,
                                           std::span<const double> src) const {
  Buffers buf;
  std::vector<double> out;
  forward(comm, src, out, buf);
  return out;
}

std::vector<double> Redistributor::backward(comm::Comm& comm,
                                            std::span<const double> dst) const {
  Buffers buf;
  std::vector<double> out;
  backward(comm, dst, out, buf);
  return out;
}

}  // namespace hacc::mesh
