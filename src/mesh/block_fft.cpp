#include "mesh/block_fft.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "obs/obs.h"

namespace hacc::mesh {

namespace {

/// The block <-> z-pencil layout table: rank r's block of `decomp` and the
/// z-pencil it holds on `fft`'s process grid.
Redistributor block_to_pencil(int nranks, const BlockDecomp3D& decomp,
                              const fft::PencilFft3D& fft) {
  std::vector<fft::Box3D> blocks, pencils;
  for (int r = 0; r < nranks; ++r) {
    blocks.push_back(decomp.box_of(r));
    const int q1 = r / fft.p2(), q2 = r % fft.p2();
    pencils.push_back(fft::Box3D{fft::block_range(fft.nx(), fft.p1(), q1),
                                 fft::block_range(fft.ny(), fft.p2(), q2),
                                 fft::Range{0, fft.nz()}});
  }
  return Redistributor(std::move(blocks), std::move(pencils));
}

}  // namespace

BlockFft::BlockFft(comm::Comm& world, const BlockDecomp3D& decomp)
    : decomp_(decomp),
      fft_(fft::PencilFft3D::balanced(world, decomp.grid_dims()[0],
                                      decomp.grid_dims()[1],
                                      decomp.grid_dims()[2])),
      remap_(block_to_pencil(world.size(), decomp, fft_)) {
  const std::size_t vol = std::max(decomp.box_of(world.rank()).volume(),
                                   fft_.real_box().volume());
  real_.reserve(vol);
  remap_buf_.reserve(vol, static_cast<std::size_t>(world.size()));
}

void BlockFft::forward(comm::Comm& world, const DistGrid& grid,
                       std::vector<fft::Complex>& spectrum,
                       const Phases* phases) {
  {
    std::optional<obs::PhaseScope> remap;
    if (phases != nullptr) remap.emplace(phases->remap);
    const auto& box = grid.interior();
    const auto ex = static_cast<std::ptrdiff_t>(box.x.extent());
    const auto ey = static_cast<std::ptrdiff_t>(box.y.extent());
    const std::size_t ez = box.z.extent();
    real_.resize(box.volume());
    double* run = real_.data();
    for (std::ptrdiff_t i = 0; i < ex; ++i)
      for (std::ptrdiff_t j = 0; j < ey; ++j, run += ez)
        std::memcpy(run, grid.z_run(i, j), ez * sizeof(double));
    remap_.forward(world, real_, remap_buf_);
  }
  std::optional<obs::PhaseScope> fft;
  if (phases != nullptr) fft.emplace(phases->fft);
  fft_.forward_r2c(std::span<const double>(real_), spectrum);
}

void BlockFft::inverse(comm::Comm& world, std::vector<fft::Complex>& spectrum,
                       DistGrid& grid, const Phases* phases) {
  {
    std::optional<obs::PhaseScope> fft;
    if (phases != nullptr) fft.emplace(phases->fft);
    fft_.inverse_c2r(spectrum, real_);
  }
  std::optional<obs::PhaseScope> remap;
  if (phases != nullptr) remap.emplace(phases->remap);
  remap_.backward(world, real_, remap_buf_);
  const auto& box = grid.interior();
  HACC_CHECK(real_.size() == box.volume());
  const auto ex = static_cast<std::ptrdiff_t>(box.x.extent());
  const auto ey = static_cast<std::ptrdiff_t>(box.y.extent());
  const std::size_t ez = box.z.extent();
  grid.fill(0.0);
  const double* run = real_.data();
  for (std::ptrdiff_t i = 0; i < ex; ++i)
    for (std::ptrdiff_t j = 0; j < ey; ++j, run += ez)
      std::memcpy(grid.z_run(i, j), run, ez * sizeof(double));
}

}  // namespace hacc::mesh
