// Distributed 3-D FFT with a 2-D "pencil" decomposition.
//
// This is the scalable FFT at the heart of HACC's long/medium-range solver
// (paper Sec. IV-A): the grid is partitioned over a 2-D process grid
// p1 x p2, lifting the slab limit N_rank < N_fft to N_rank < N^2_fft. The
// transform is composed of interleaved transposition and sequential 1-D FFT
// steps, where each transposition involves only a subset of ranks (a row or
// a column of the process grid).
//
// Layouts (row-major, x slowest / z fastest), with NZ = Nz for the complex
// transform and NZ = Nz/2+1 for the real-to-complex half-spectrum:
//   real space   "z-pencil":  (Nx/p1, Ny/p2, NZ)  — x over p1, y over p2
//   after T1     "y-pencil":  (Nx/p1, Ny, NZ/p2)
//   spectral     "x-pencil":  (Nx, Ny/p1, NZ/p2)  — y over p1, z over p2
// Blocks are uneven when the process-grid dims do not divide the FFT dims.
//
// Every transpose is a BoxRemap (fft/box_remap.h) over the row or column
// subcommunicator, one plan per transpose and z extent, all sharing one
// exchange workspace reserved at construction, so steady-state transforms
// make no heap allocation. The strided y/x line transforms are
// OpenMP-threaded (Fft1D plans are safe to share across threads).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "comm/comm.h"
#include "fft/box_remap.h"
#include "fft/decomp.h"
#include "fft/fft1d.h"

namespace hacc::fft {

class PencilFft3D {
 public:
  /// Create a plan over `world` for an Nx x Ny x Nz transform on a p1 x p2
  /// process grid. Requires world.size() == p1*p2, p1 <= Ny (and Nx), and
  /// p2 <= Nz (and Ny), i.e. N_rank < N^2 overall.
  PencilFft3D(comm::Comm& world, std::size_t nx, std::size_t ny,
              std::size_t nz, int p1, int p2);

  /// Balanced process grid for world.size().
  static PencilFft3D balanced(comm::Comm& world, std::size_t nx,
                              std::size_t ny, std::size_t nz);

  std::size_t nx() const noexcept { return nx_; }
  std::size_t ny() const noexcept { return ny_; }
  std::size_t nz() const noexcept { return nz_; }
  /// Modes along z of the real transform's half-spectrum: Nz/2 + 1.
  std::size_t nzh() const noexcept { return nzh_; }
  int p1() const noexcept { return p1_; }
  int p2() const noexcept { return p2_; }

  /// The box of global real-space grid indices this rank owns (z-pencil).
  const Box3D& real_box() const noexcept { return real_box_; }
  /// The box of global spectral indices this rank owns (x-pencil).
  const Box3D& spectral_box() const noexcept { return spectral_box_; }
  /// The box of half-spectrum indices this rank owns after forward_r2c:
  /// x full, y blocked over p1, z blocked over [0, Nz/2+1).
  const Box3D& spectral_box_r2c() const noexcept { return spectral_box_h_; }

  /// Forward transform: `data` holds the local z-pencil (real_box volume);
  /// on return it holds the local x-pencil (spectral_box volume) of the
  /// unscaled forward transform. The buffer is resized as needed.
  void forward(std::vector<Complex>& data);

  /// Inverse of `forward`, including the 1/(Nx*Ny*Nz) normalization:
  /// spectral x-pencil in, real z-pencil out.
  void inverse(std::vector<Complex>& data);

  /// Real-to-complex forward transform: `in` holds the local real z-pencil
  /// (real_box volume); `out` receives the local x-pencil of the Hermitian
  /// half-spectrum (spectral_box_r2c volume, unscaled). Versus forward()
  /// this halves the z-transform flops, the y/x line counts, and the
  /// transpose traffic.
  void forward_r2c(std::span<const double> in, std::vector<Complex>& out);

  /// Inverse of forward_r2c, including the 1/(Nx*Ny*Nz) normalization:
  /// `data` holds the half-spectrum x-pencil (clobbered); `out` receives
  /// the real z-pencil. The input is assumed Hermitian along z (true for
  /// any field produced by forward_r2c times a Hermitian-preserving
  /// multiplier).
  void inverse_c2r(std::vector<Complex>& data, std::vector<double>& out);

  /// Per-phase accounting accumulated across forward/inverse calls.
  struct Stats {
    double fft_seconds = 0;        ///< 1-D line transforms (z, y, x)
    double transpose_seconds = 0;  ///< pack + exchange + unpack
    std::size_t bytes_moved = 0;   ///< bytes of this rank's blocks transposed
    std::size_t transforms = 0;    ///< forward/inverse calls completed
  };
  const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = Stats{}; }

  /// The transposes' exchange workspace: reserved at construction, so
  /// transforms neither grow nor move its buffers.
  const BoxRemap<Complex>::Buffers& workspace() const noexcept {
    return workspace_;
  }

 private:
  using Remap = BoxRemap<Complex>;

  /// One layout change: `plan` over `comm`, forward (z->y, y->x) or
  /// inverse. Counts this rank's whole block as moved, self share included,
  /// also where the plan moves nothing.
  void transpose(const comm::Comm& comm, const Remap& plan, Direction dir,
                 std::vector<Complex>& data);
  void fft_y(std::vector<Complex>& data, Direction dir, std::size_t nzl);
  void fft_x(std::vector<Complex>& data, Direction dir, std::size_t nzl);
  std::size_t local_z(std::size_t nzf) const {
    return block_range(nzf, p2_, q2_).extent();
  }

  std::size_t nx_, ny_, nz_, nzh_;
  int p1_, p2_;
  int q1_, q2_;  // this rank's process-grid coordinates
  comm::Comm row_comm_;  // ranks sharing q1 (size p2): z<->y transposes
  comm::Comm col_comm_;  // ranks sharing q2 (size p1): y<->x transposes
  Box3D real_box_, mid_box_, spectral_box_;
  Box3D mid_box_h_, spectral_box_h_;  // r2c (half-spectrum) variants
  Fft1D fft_x_plan_, fft_y_plan_, fft_z_plan_;

  // The transposes, parameterized by the global z extent of the y/x-pencil
  // layouts: Nz for c2c, Nz/2+1 (the `_h` plans) for r2c.
  Remap z_y_, z_y_h_, y_x_, y_x_h_;
  // Their shared exchange workspace, reserved once to the largest layout
  // volume (`max_vol_`, which the data buffer is reserved to as well).
  std::size_t max_vol_ = 0;
  Remap::Buffers workspace_;
  Stats stats_;
};

}  // namespace hacc::fft
