// The one path between a block-decomposed grid and k-space.
//
// The particle sector's grids live on the blocks of a BlockDecomp3D, the
// pencil FFT on z-pencils (paper Sec. IV-A). The Poisson solve, the P(k)
// and xi(r) estimators and the initial conditions all cross between the
// two here. A BlockFft owns the balanced pencil plan, the block <-> z-pencil
// remap plan (a BoxRemap, like the pencil's own transposes), one real-space
// staging buffer remapped in place, and the remap's exchange workspace, all
// reserved at construction, so a steady-state transform pair makes no heap
// allocation of its own. Where every rank's block is its z-pencil (2, 3 and
// 4 ranks on balanced layouts) the remap moves nothing.
//
// Spectra are real-to-complex half spectra, row-major over this rank's
// modes() box with z in [0, Nz/2 + 1). A full-spectrum sum is a sum over
// modes() weighted by multiplicity(mz): the z = 0 plane and the even-Nz
// Nyquist plane hold their own Hermitian mirrors, every other plane also
// stands for its mirror at -k.
#pragma once

#include <vector>

#include "comm/comm.h"
#include "fft/pencil.h"
#include "mesh/grid.h"
#include "mesh/remap.h"
#include "obs/counters.h"

namespace hacc::mesh {

class BlockFft {
 public:
  /// Phases a caller times the two halves of a transform under, through
  /// obs::PhaseScope; forward() and inverse() time nothing without them.
  struct Phases {
    obs::PhaseIds remap;  ///< block <-> z-pencil remap, pack and unpack
    obs::PhaseIds fft;    ///< the pencil FFT
  };

  /// Collective over `world` (creates the pencil FFT's sub-communicators).
  BlockFft(comm::Comm& world, const BlockDecomp3D& decomp);

  const BlockDecomp3D& decomp() const noexcept { return decomp_; }

  /// This rank's half-spectrum box: x full, y over p1, z over p2.
  const fft::Box3D& modes() const noexcept {
    return fft_.spectral_box_r2c();
  }

  /// Full-spectrum modes the half-spectrum plane `mz` stands for (1 or 2).
  int multiplicity(std::size_t mz) const noexcept {
    return mz == 0 || 2 * mz == decomp_.grid_dims()[2] ? 1 : 2;
  }

  /// Unscaled forward transform of `grid`'s interior (ghosts ignored) into
  /// this rank's half spectrum. Collective.
  void forward(comm::Comm& world, const DistGrid& grid,
               std::vector<fft::Complex>& spectrum,
               const Phases* phases = nullptr);

  /// Inverse of forward(), 1/(Nx Ny Nz) included: `spectrum` (clobbered)
  /// must be Hermitian along z, as forward() output times a
  /// Hermitian-preserving multiplier is. Fills `grid`'s interior and
  /// zeroes its ghosts. Collective.
  void inverse(comm::Comm& world, std::vector<fft::Complex>& spectrum,
               DistGrid& grid, const Phases* phases = nullptr);

  /// The block <-> z-pencil remap's exchange workspace: reserved at
  /// construction, so transforms neither grow nor move its buffers.
  const Redistributor::Buffers& remap_workspace() const noexcept {
    return remap_buf_;
  }

 private:
  BlockDecomp3D decomp_;
  fft::PencilFft3D fft_;
  Redistributor remap_;
  Redistributor::Buffers remap_buf_;
  std::vector<double> real_;  // the real field, remapped in place
};

}  // namespace hacc::mesh
