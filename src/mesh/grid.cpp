#include "mesh/grid.h"

#include <algorithm>
#include <cstring>

#include "fft/box_remap.h"

namespace hacc::mesh {

namespace {
/// Distinct tags per (axis, direction) so a rank with the same neighbor on
/// both sides (2 ranks along an axis) can tell the two slabs apart.
int exchange_tag(int axis, int dir) { return -200 - (axis * 2 + dir); }
}  // namespace

DistGrid::DistGrid(const BlockDecomp3D& decomp, int rank, std::size_t ghost)
    : decomp_(decomp),
      rank_(rank),
      box_(decomp.box_of(rank)),
      ghost_(ghost),
      data_(local_volume(), 0.0) {
  // Every exchange pulls from the *immediate* neighbor only, so the ghost
  // width must not exceed the smallest block extent along each axis.
  for (int d = 0; d < 3; ++d) {
    const std::size_t n = decomp.grid_dims()[static_cast<std::size_t>(d)];
    const int p = decomp.topology().dims()[static_cast<std::size_t>(d)];
    HACC_CHECK_MSG(ghost_ <= n / static_cast<std::size_t>(p),
                   "ghost width exceeds the smallest block extent");
  }
}

void DistGrid::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

double DistGrid::interior_sum() const {
  double s = 0;
  const auto ex = static_cast<std::ptrdiff_t>(box_.x.extent());
  const auto ey = static_cast<std::ptrdiff_t>(box_.y.extent());
  const auto ez = static_cast<std::ptrdiff_t>(box_.z.extent());
  for (std::ptrdiff_t i = 0; i < ex; ++i)
    for (std::ptrdiff_t j = 0; j < ey; ++j)
      for (std::ptrdiff_t k = 0; k < ez; ++k) s += at(i, j, k);
  return s;
}

// One sweep along `axis`. Geometry per direction dir (0 = low side, i.e. we
// send toward the -axis neighbor; 1 = high side):
//
//   fold:  send ghosts [-g, 0) (dir 0) or [ext, ext+g) (dir 1); receiver
//          adds into interior [ext-g, ext) / [0, g). Transverse axes span
//          the *full* local range for axes not yet swept, so corner
//          contributions ride along; ghosts are zeroed after sending.
//   fill:  send interior [0, g) (dir 0) to the -axis neighbor, which
//          stores it in its high ghosts [ext, ext+g), and interior
//          [ext-g, ext) (dir 1) to the +axis neighbor for its low ghosts
//          [-g, 0). Transverse axes span the full local range for axes
//          already swept, so corners propagate.
//
// Slabs are copied by contiguous runs (fft::box_runs) through one
// persistent buffer; the received slabs are applied from the +axis
// neighbor first, then the -axis one, so fold sums keep their order.
void DistGrid::sweep(comm::Comm& comm, int axis, bool fold) {
  if (ghost_ == 0) return;
  const auto g = static_cast<std::ptrdiff_t>(ghost_);
  const auto dims = local_dims();
  const Box3D local{Range{0, dims[0]}, Range{0, dims[1]}, Range{0, dims[2]}};
  const std::array<std::ptrdiff_t, 3> ext{
      static_cast<std::ptrdiff_t>(box_.x.extent()),
      static_cast<std::ptrdiff_t>(box_.y.extent()),
      static_cast<std::ptrdiff_t>(box_.z.extent())};

  // The runs, in local storage, of the slab [alo, ahi) along `axis`
  // (offsets from the interior origin). Transverse axes span the full local
  // range (with ghosts) or the interior only: fold sweeps x,y,z in that
  // order, so axes > `axis` still carry ghost data; fill sweeps x,y,z too,
  // so axes < `axis` already have valid ghosts to send.
  auto slab = [&](std::ptrdiff_t alo, std::ptrdiff_t ahi) {
    std::array<Range, 3> r;
    for (int d = 0; d < 3; ++d) {
      const auto e = ext[static_cast<std::size_t>(d)];
      const bool full = fold ? (d > axis) : (d < axis);
      const std::ptrdiff_t lo = d == axis ? alo : (full ? -g : 0);
      const std::ptrdiff_t hi = d == axis ? ahi : (full ? e + g : e);
      r[static_cast<std::size_t>(d)] = Range{static_cast<std::size_t>(lo + g),
                                             static_cast<std::size_t>(hi + g)};
    }
    return fft::box_runs(Box3D{r[0], r[1], r[2]}, local);
  };

  const auto& topo = decomp_.topology();
  const int lo_nbr = topo.neighbor(rank_, axis, -1);
  const int hi_nbr = topo.neighbor(rank_, axis, +1);

  const std::ptrdiff_t e = ext[static_cast<std::size_t>(axis)];
  // Send regions: dir 0 goes to lo_nbr, dir 1 to hi_nbr.
  const std::array<fft::BoxRuns, 2> out{
      fold ? slab(-g, 0) : slab(0, g), fold ? slab(e, e + g) : slab(e - g, e)};
  // Receive regions: a slab tagged dir 0 travels toward -axis, so it
  // arrives *from* my +axis neighbor, and vice versa.
  const std::array<fft::BoxRuns, 2> in{
      fold ? slab(e - g, e) : slab(e, e + g), fold ? slab(0, g) : slab(-g, 0)};
  const std::array<int, 2> dest{lo_nbr, hi_nbr}, source{hi_nbr, lo_nbr};

  // Sends are buffered, so one slab buffer serves every send and receive.
  double* cells = data_.data();
  for (std::size_t dir = 0; dir < 2; ++dir) {
    const fft::BoxRuns& r = out[dir];
    slab_.resize(r.count * r.len);
    for (std::size_t k = 0; k < r.count; ++k) {
      std::memcpy(slab_.data() + k * r.len, cells + r.offset(k),
                  r.len * sizeof(double));
      // Zero the ghosts a fold ships so a later fill can't double-count.
      if (fold) std::fill_n(cells + r.offset(k), r.len, 0.0);
    }
    comm.send(dest[dir], exchange_tag(axis, static_cast<int>(dir)),
              std::span<const double>(slab_));
  }
  for (std::size_t dir = 0; dir < 2; ++dir) {  // from hi_nbr, then lo_nbr
    const fft::BoxRuns& r = in[dir];
    slab_.resize(r.count * r.len);
    comm.recv(source[dir], exchange_tag(axis, static_cast<int>(dir)),
              std::span<double>(slab_));
    for (std::size_t k = 0; k < r.count; ++k) {
      double* run = cells + r.offset(k);
      const double* packed = slab_.data() + k * r.len;
      if (fold) {
        for (std::size_t i = 0; i < r.len; ++i) run[i] += packed[i];
      } else {
        std::memcpy(run, packed, r.len * sizeof(double));
      }
    }
  }
}

void DistGrid::fold_ghosts(comm::Comm& comm) {
  for (int axis = 0; axis < 3; ++axis) sweep(comm, axis, /*fold=*/true);
}

void DistGrid::fill_ghosts(comm::Comm& comm) {
  for (int axis = 0; axis < 3; ++axis) sweep(comm, axis, /*fold=*/false);
}

}  // namespace hacc::mesh
