#include "cosmology/initial_conditions.h"

#include <cmath>
#include <numbers>

#include "mesh/block_fft.h"
#include "mesh/cic.h"
#include "mesh/kernels.h"
#include "util/rng.h"

namespace hacc::cosmology {

void generate_displacement_fields(comm::Comm& world,
                                  const mesh::BlockDecomp3D& decomp,
                                  const Cosmology& cosmo,
                                  const IcConfig& config,
                                  std::array<mesh::DistGrid, 3>& psi) {
  const auto& dims = decomp.grid_dims();
  HACC_CHECK(dims[0] == dims[1] && dims[1] == dims[2]);
  const std::size_t n = dims[0];
  const double box = config.box_mpch;
  const double cell_mpch = box / static_cast<double>(n);
  const double kf = 2.0 * std::numbers::pi / box;
  const double ncells = static_cast<double>(n) * static_cast<double>(n) *
                        static_cast<double>(n);

  LinearPower power(cosmo, config.transfer);
  mesh::BlockFft fft(world, decomp);

  // White noise keyed by global cell: decomposition independent. psi[0]
  // holds it until its own inverse transform overwrites it.
  Philox rng(config.seed);
  {
    mesh::DistGrid& noise = psi[0];
    const fft::Box3D& b = noise.interior();
    for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
      for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
        for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
          noise.at(static_cast<std::ptrdiff_t>(x - b.x.lo),
                   static_cast<std::ptrdiff_t>(y - b.y.lo),
                   static_cast<std::ptrdiff_t>(z - b.z.lo)) =
              rng.gaussian2((x * n + y) * n + z)[0];
  }
  std::vector<fft::Complex> delta_k;
  fft.forward(world, psi[0], delta_k);

  // This rank's half-spectrum modes in storage order: index, signed mode
  // and k^2 [(h/Mpc)^2].
  const fft::Box3D& sb = fft.modes();
  auto for_each_mode = [&](auto&& fn) {
    std::size_t i = 0;
    for (std::size_t mx = sb.x.lo; mx < sb.x.hi; ++mx)
      for (std::size_t my = sb.y.lo; my < sb.y.hi; ++my)
        for (std::size_t mz = sb.z.lo; mz < sb.z.hi; ++mz, ++i) {
          const std::array<long, 3> s{mesh::signed_mode(mx, n),
                                      mesh::signed_mode(my, n),
                                      mesh::signed_mode(mz, n)};
          fn(i, s,
             kf * kf *
                 static_cast<double>(s[0] * s[0] + s[1] * s[1] + s[2] * s[2]));
        }
  };

  // delta(k) = n(k) sqrt(P(k) N / V), in place.
  for_each_mode([&](std::size_t i, const std::array<long, 3>&, double k2) {
    delta_k[i] = k2 == 0.0 ? fft::Complex(0, 0)
                           : delta_k[i] * std::sqrt(power(std::sqrt(k2)) *
                                                    ncells / (box * box * box));
  });

  // psi_axis(k) = i k_axis delta / k^2 [Mpc/h], in grid units; one inverse
  // transform per axis (each clobbers psi_k).
  std::vector<fft::Complex> psi_k;
  for (std::size_t axis = 0; axis < 3; ++axis) {
    psi_k.resize(delta_k.size());
    for_each_mode([&](std::size_t i, const std::array<long, 3>& s, double k2) {
      // Zero the Nyquist plane of this axis: i*k has no Hermitian partner
      // there and would leak an imaginary component.
      const bool nyquist = n % 2 == 0 && s[axis] == -static_cast<long>(n / 2);
      psi_k[i] = k2 == 0.0 || nyquist
                     ? fft::Complex(0, 0)
                     : fft::Complex(0.0, kf * static_cast<double>(s[axis]) /
                                             k2) *
                           delta_k[i] / cell_mpch;
    });
    fft.inverse(world, psi_k, psi[axis]);
    psi[axis].fill_ghosts(world);
  }
}

void generate_zeldovich(comm::Comm& world, const mesh::BlockDecomp3D& decomp,
                        const Cosmology& cosmo, const IcConfig& config,
                        tree::ParticleArray& out) {
  const auto& dims = decomp.grid_dims();
  const std::size_t n = dims[0];
  const std::size_t np = config.particles_per_dim;
  HACC_CHECK_MSG(np >= 1 && np <= n,
                 "particle lattice must not exceed the grid");

  std::array<mesh::DistGrid, 3> psi{
      mesh::DistGrid(decomp, world.rank(), 1),
      mesh::DistGrid(decomp, world.rank(), 1),
      mesh::DistGrid(decomp, world.rank(), 1)};
  generate_displacement_fields(world, decomp, cosmo, config, psi);

  const double a = Cosmology::a_of_z(config.z_init);
  const double growth = cosmo.growth_factor(a);
  const double f = cosmo.growth_rate(a);
  const double e = cosmo.efunc(a);
  // Zel'dovich momentum coefficient: p = a^2 E f D psi (code units).
  const double pcoef = a * a * e * f * growth;

  const auto& box = decomp.box_of(world.rank());
  const double spacing = static_cast<double>(n) / static_cast<double>(np);
  out.clear();

  // Lattice sites inside my domain.
  auto first_site = [&](double lo) {
    return static_cast<std::size_t>(
        std::ceil(lo / spacing - 1e-9));
  };
  std::vector<float> qx, qy, qz;
  std::vector<std::uint64_t> ids;
  for (std::size_t ix = first_site(static_cast<double>(box.x.lo)); ix < np;
       ++ix) {
    const double x = static_cast<double>(ix) * spacing;
    if (x >= static_cast<double>(box.x.hi)) break;
    for (std::size_t iy = first_site(static_cast<double>(box.y.lo)); iy < np;
         ++iy) {
      const double y = static_cast<double>(iy) * spacing;
      if (y >= static_cast<double>(box.y.hi)) break;
      for (std::size_t iz = first_site(static_cast<double>(box.z.lo));
           iz < np; ++iz) {
        const double z = static_cast<double>(iz) * spacing;
        if (z >= static_cast<double>(box.z.hi)) break;
        qx.push_back(static_cast<float>(x));
        qy.push_back(static_cast<float>(y));
        qz.push_back(static_cast<float>(z));
        ids.push_back((ix * np + iy) * np + iz);
      }
    }
  }

  std::vector<float> dx(qx.size()), dy(qx.size()), dz(qx.size());
  mesh::cic_interpolate(psi[0], qx, qy, qz, dx);
  mesh::cic_interpolate(psi[1], qx, qy, qz, dy);
  mesh::cic_interpolate(psi[2], qx, qy, qz, dz);

  const auto wrap = [&](double v) {
    const double nn = static_cast<double>(n);
    v = std::fmod(v, nn);
    return static_cast<float>(v < 0 ? v + nn : v);
  };
  out.reserve(qx.size());
  for (std::size_t i = 0; i < qx.size(); ++i) {
    out.push_back(wrap(qx[i] + growth * dx[i]),
                  wrap(qy[i] + growth * dy[i]),
                  wrap(qz[i] + growth * dz[i]),
                  static_cast<float>(pcoef * dx[i]),
                  static_cast<float>(pcoef * dy[i]),
                  static_cast<float>(pcoef * dz[i]), 1.0f, ids[i]);
  }
}

}  // namespace hacc::cosmology
