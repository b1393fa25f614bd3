#include "fft/pencil.h"

#include <algorithm>
#include <vector>

#include "comm/cart.h"
#include "obs/obs.h"
#include "util/timer.h"

namespace hacc::fft {

namespace {

// Telemetry ids, interned once at static init.
const NameId kCtrTransposeBytes = obs::counter_id("fft.transpose.bytes");
const NameId kCtrTransforms = obs::counter_id("fft.transforms");
const NameId kTrcForward = intern_name("fft.forward");
const NameId kTrcInverse = intern_name("fft.inverse");
const NameId kTrcForwardR2c = intern_name("fft.forward_r2c");
const NameId kTrcInverseC2r = intern_name("fft.inverse_c2r");

/// This rank's process-grid row, once the p1 x p2 grid is checked against
/// the world and the transform shape.
int checked_row(const comm::Comm& world, std::size_t nx, std::size_t ny,
                std::size_t nz, int p1, int p2) {
  HACC_CHECK_MSG(world.size() == p1 * p2,
                 "pencil FFT: world size must equal p1*p2");
  HACC_CHECK_MSG(static_cast<std::size_t>(p1) <= nx &&
                     static_cast<std::size_t>(p1) <= ny,
                 "pencil FFT: p1 must not exceed Nx and Ny");
  HACC_CHECK_MSG(static_cast<std::size_t>(p2) <= ny &&
                     static_cast<std::size_t>(p2) <= nz,
                 "pencil FFT: p2 must not exceed Ny and Nz");
  return world.rank() / p2;
}

/// T1 over one process-grid row (x block `xr`, p2 ranks): row rank d holds
/// the z-pencil (xr, y block d, [0, NZ)) and the y-pencil
/// (xr, [0, Ny), z block d of NZ).
BoxRemap<Complex> z_to_y(Range xr, std::size_t ny, std::size_t nzf, int p2) {
  std::vector<Box3D> zp, yp;
  for (int d = 0; d < p2; ++d) {
    zp.push_back(Box3D{xr, block_range(ny, p2, d), Range{0, nzf}});
    yp.push_back(Box3D{xr, Range{0, ny}, block_range(nzf, p2, d)});
  }
  return BoxRemap<Complex>(std::move(zp), std::move(yp));
}

/// T2 over one process-grid column (z block `zr`, p1 ranks): column rank d
/// holds the y-pencil (x block d, [0, Ny), zr) and the x-pencil
/// ([0, Nx), y block d, zr).
BoxRemap<Complex> y_to_x(Range zr, std::size_t nx, std::size_t ny, int p1) {
  std::vector<Box3D> yp, xp;
  for (int d = 0; d < p1; ++d) {
    yp.push_back(Box3D{block_range(nx, p1, d), Range{0, ny}, zr});
    xp.push_back(Box3D{Range{0, nx}, block_range(ny, p1, d), zr});
  }
  return BoxRemap<Complex>(std::move(yp), std::move(xp));
}

}  // namespace

PencilFft3D::PencilFft3D(comm::Comm& world, std::size_t nx, std::size_t ny,
                         std::size_t nz, int p1, int p2)
    : nx_(nx),
      ny_(ny),
      nz_(nz),
      nzh_(nz / 2 + 1),
      p1_(p1),
      p2_(p2),
      q1_(checked_row(world, nx, ny, nz, p1, p2)),
      q2_(world.rank() % p2),
      fft_x_plan_(nx),
      fft_y_plan_(ny),
      fft_z_plan_(nz),
      z_y_(z_to_y(block_range(nx, p1, q1_), ny, nz, p2)),
      z_y_h_(z_to_y(block_range(nx, p1, q1_), ny, nzh_, p2)),
      y_x_(y_to_x(block_range(nz, p2, q2_), nx, ny, p1)),
      y_x_h_(y_to_x(block_range(nzh_, p2, q2_), nx, ny, p1)) {
  row_comm_ = world.split(q1_, q2_);
  col_comm_ = world.split(q2_, q1_);
  HACC_CHECK(row_comm_.size() == p2 && row_comm_.rank() == q2_);
  HACC_CHECK(col_comm_.size() == p1 && col_comm_.rank() == q1_);

  real_box_ = Box3D{block_range(nx, p1, q1_), block_range(ny, p2, q2_),
                    Range{0, nz}};
  mid_box_ = Box3D{block_range(nx, p1, q1_), Range{0, ny},
                   block_range(nz, p2, q2_)};
  spectral_box_ = Box3D{Range{0, nx}, block_range(ny, p1, q1_),
                        block_range(nz, p2, q2_)};
  mid_box_h_ = Box3D{block_range(nx, p1, q1_), Range{0, ny},
                     block_range(nzh_, p2, q2_)};
  spectral_box_h_ = Box3D{Range{0, nx}, block_range(ny, p1, q1_),
                          block_range(nzh_, p2, q2_)};

  // Size the persistent workspace to the largest layout this plan can pass
  // through, so no steady-state call ever grows a buffer.
  max_vol_ = std::max({real_box_.volume(), mid_box_.volume(),
                       spectral_box_.volume(),
                       real_box_.x.extent() * real_box_.y.extent() * nzh_,
                       mid_box_h_.volume(), spectral_box_h_.volume()});
  workspace_.reserve(max_vol_,
                     static_cast<std::size_t>(std::max(p1_, p2_)));
}

PencilFft3D PencilFft3D::balanced(comm::Comm& world, std::size_t nx,
                                  std::size_t ny, std::size_t nz) {
  const auto dims = comm::dims_create(world.size(), 2);
  return PencilFft3D(world, nx, ny, nz, dims[0], dims[1]);
}

void PencilFft3D::transpose(const comm::Comm& comm, const Remap& plan,
                            Direction dir, std::vector<Complex>& data) {
  Timer t;
  const std::size_t bytes = data.size() * sizeof(Complex);
  stats_.bytes_moved += bytes;
  obs::add_counter(kCtrTransposeBytes, bytes);
  if (dir == Direction::kForward) {
    plan.forward(comm, data, workspace_);
  } else {
    plan.backward(comm, data, workspace_);
  }
  stats_.transpose_seconds += t.elapsed();
}

void PencilFft3D::fft_y(std::vector<Complex>& data, Direction dir,
                        std::size_t nzl) {
  // y-pencil layout (nxl, Ny, nzl): y lines have stride nzl.
  Timer t;
  const std::size_t nxl = mid_box_.x.extent();
#pragma omp parallel for collapse(2) schedule(static) \
    if (nxl * nzl >= 64 && ny_ >= 32)
  for (std::size_t x = 0; x < nxl; ++x)
    for (std::size_t z = 0; z < nzl; ++z) {
      thread_local std::vector<Complex> line;
      line.resize(ny_);
      Complex* base = data.data() + x * ny_ * nzl + z;
      for (std::size_t y = 0; y < ny_; ++y) line[y] = base[y * nzl];
      fft_y_plan_.transform(line.data(), dir);
      for (std::size_t y = 0; y < ny_; ++y) base[y * nzl] = line[y];
    }
  stats_.fft_seconds += t.elapsed();
}

void PencilFft3D::fft_x(std::vector<Complex>& data, Direction dir,
                        std::size_t nzl) {
  // x-pencil layout (Nx, nyl2, nzl): x lines have stride nyl2*nzl.
  Timer t;
  const std::size_t nyl2 = spectral_box_.y.extent();
  const std::size_t stride = nyl2 * nzl;
#pragma omp parallel for collapse(2) schedule(static) \
    if (nyl2 * nzl >= 64 && nx_ >= 32)
  for (std::size_t y = 0; y < nyl2; ++y)
    for (std::size_t z = 0; z < nzl; ++z) {
      thread_local std::vector<Complex> line;
      line.resize(nx_);
      Complex* base = data.data() + y * nzl + z;
      for (std::size_t x = 0; x < nx_; ++x) line[x] = base[x * stride];
      fft_x_plan_.transform(line.data(), dir);
      for (std::size_t x = 0; x < nx_; ++x) base[x * stride] = line[x];
    }
  stats_.fft_seconds += t.elapsed();
}

void PencilFft3D::forward(std::vector<Complex>& data) {
  obs::TraceScope trace(kTrcForward);
  obs::add_counter(kCtrTransforms, 1);
  HACC_CHECK_MSG(data.size() == real_box_.volume(),
                 "pencil forward: input must be the local z-pencil");
  data.reserve(max_vol_);
  {
    Timer t;
    fft_z_plan_.transform_batch(data.data(),
                                real_box_.x.extent() * real_box_.y.extent(),
                                Direction::kForward);
    stats_.fft_seconds += t.elapsed();
  }
  transpose(row_comm_, z_y_, Direction::kForward, data);
  fft_y(data, Direction::kForward, local_z(nz_));
  transpose(col_comm_, y_x_, Direction::kForward, data);
  fft_x(data, Direction::kForward, local_z(nz_));
  ++stats_.transforms;
}

void PencilFft3D::inverse(std::vector<Complex>& data) {
  obs::TraceScope trace(kTrcInverse);
  obs::add_counter(kCtrTransforms, 1);
  HACC_CHECK_MSG(data.size() == spectral_box_.volume(),
                 "pencil inverse: input must be the local x-pencil");
  data.reserve(max_vol_);
  fft_x(data, Direction::kInverse, local_z(nz_));
  transpose(col_comm_, y_x_, Direction::kInverse, data);
  fft_y(data, Direction::kInverse, local_z(nz_));
  transpose(row_comm_, z_y_, Direction::kInverse, data);
  {
    Timer t;
    fft_z_plan_.transform_batch(data.data(),
                                real_box_.x.extent() * real_box_.y.extent(),
                                Direction::kInverse);
    const double scale =
        1.0 / (static_cast<double>(nx_) * static_cast<double>(ny_) *
               static_cast<double>(nz_));
    for (auto& v : data) v *= scale;
    stats_.fft_seconds += t.elapsed();
  }
  ++stats_.transforms;
}

void PencilFft3D::forward_r2c(std::span<const double> in,
                              std::vector<Complex>& out) {
  obs::TraceScope trace(kTrcForwardR2c);
  obs::add_counter(kCtrTransforms, 1);
  HACC_CHECK_MSG(in.size() == real_box_.volume(),
                 "pencil forward_r2c: input must be the local real z-pencil");
  const std::size_t lines = real_box_.x.extent() * real_box_.y.extent();
  out.reserve(max_vol_);
  out.resize(lines * nzh_);
  {
    Timer t;
#pragma omp parallel for schedule(static) if (lines >= 64 && nz_ >= 32)
    for (std::size_t l = 0; l < lines; ++l)
      fft_z_plan_.forward_r2c(in.data() + l * nz_, out.data() + l * nzh_);
    stats_.fft_seconds += t.elapsed();
  }
  transpose(row_comm_, z_y_h_, Direction::kForward, out);
  fft_y(out, Direction::kForward, local_z(nzh_));
  transpose(col_comm_, y_x_h_, Direction::kForward, out);
  fft_x(out, Direction::kForward, local_z(nzh_));
  ++stats_.transforms;
}

void PencilFft3D::inverse_c2r(std::vector<Complex>& data,
                              std::vector<double>& out) {
  obs::TraceScope trace(kTrcInverseC2r);
  obs::add_counter(kCtrTransforms, 1);
  HACC_CHECK_MSG(data.size() == spectral_box_h_.volume(),
                 "pencil inverse_c2r: input must be the half-spectrum "
                 "x-pencil");
  data.reserve(max_vol_);
  fft_x(data, Direction::kInverse, local_z(nzh_));
  transpose(col_comm_, y_x_h_, Direction::kInverse, data);
  fft_y(data, Direction::kInverse, local_z(nzh_));
  transpose(row_comm_, z_y_h_, Direction::kInverse, data);
  const std::size_t lines = real_box_.x.extent() * real_box_.y.extent();
  out.resize(lines * nz_);
  {
    Timer t;
    // The z-line c2r includes the 1/Nz factor; fold in the rest here.
#pragma omp parallel for schedule(static) if (lines >= 64 && nz_ >= 32)
    for (std::size_t l = 0; l < lines; ++l)
      fft_z_plan_.inverse_c2r(data.data() + l * nzh_, out.data() + l * nz_);
    const double scale =
        1.0 / (static_cast<double>(nx_) * static_cast<double>(ny_));
    for (auto& v : out) v *= scale;
    stats_.fft_seconds += t.elapsed();
  }
  ++stats_.transforms;
}

}  // namespace hacc::fft
