#include "core/domain.h"

#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace hacc::core {

namespace {

const NameId kTrcMigrate = intern_name("refresh.migrate");
const NameId kTrcReplicate = intern_name("refresh.replicate");
const NameId kCtrMigrated = obs::counter_id("refresh.migrated");
const NameId kCtrRefreshed = obs::counter_id("refresh.particles");
const NameId kGaugeActive = obs::gauge_id("refresh.active");
const NameId kGaugePassive = obs::gauge_id("refresh.passive");

}  // namespace

OverloadDomain::OverloadDomain(const mesh::BlockDecomp3D& decomp, int rank,
                               double overload)
    : decomp_(decomp),
      rank_(rank),
      box_(decomp.box_of(rank)),
      overload_(overload) {
  HACC_CHECK_MSG(overload_ >= 0.0, "negative overload depth");
  for (int d = 0; d < 3; ++d) {
    const std::size_t n = decomp.grid_dims()[static_cast<std::size_t>(d)];
    const int p = decomp.topology().dims()[static_cast<std::size_t>(d)];
    HACC_CHECK_MSG(
        overload_ <= static_cast<double>(n / static_cast<std::size_t>(p)),
        "overload depth exceeds the smallest domain extent");
  }
  build_images();
  build_stencil();
  all_ranks_.resize(static_cast<std::size_t>(decomp.nranks()));
  std::iota(all_ranks_.begin(), all_ranks_.end(), 0);
}

void OverloadDomain::build_images() {
  const auto& dims = decomp_.grid_dims();
  const auto& topo = decomp_.topology();
  const auto coords = topo.coords(rank_);
  std::size_t w = 0;
  for (int ox = -1; ox <= 1; ++ox) {
    for (int oy = -1; oy <= 1; ++oy) {
      for (int oz = -1; oz <= 1; ++oz) {
        if (ox == 0 && oy == 0 && oz == 0) continue;
        const std::array<int, 3> offset{ox, oy, oz};
        std::array<int, 3> ncoord{};
        Image& im = images_[w++];
        for (int d = 0; d < 3; ++d) {
          const auto sd = static_cast<std::size_t>(d);
          ncoord[sd] = coords[sd] + offset[sd];
          const int pd = topo.dims()[sd];
          im.shift[sd] = 0.0;
          if (ncoord[sd] < 0)
            im.shift[sd] = -static_cast<double>(dims[sd]);
          else if (ncoord[sd] >= pd)
            im.shift[sd] = static_cast<double>(dims[sd]);
        }
        im.nbr = topo.rank_of(ncoord);
        // The image's overload slab, in this rank's coordinate frame.
        const auto nbox = decomp_.box_of(im.nbr);
        const fft::Range* ranges[3] = {&nbox.x, &nbox.y, &nbox.z};
        for (int d = 0; d < 3; ++d) {
          const auto sd = static_cast<std::size_t>(d);
          im.lo[sd] =
              static_cast<double>(ranges[d]->lo) + im.shift[sd] - overload_;
          im.hi[sd] =
              static_cast<double>(ranges[d]->hi) + im.shift[sd] + overload_;
        }
      }
    }
  }
}

void OverloadDomain::build_stencil() {
  const int p = decomp_.nranks();
  const auto& dims = decomp_.grid_dims();
  stencil_.clear();
  slot_of_.assign(static_cast<std::size_t>(p), -1);
  // All box bounds and shifts are integers, so the L-inf min-image distance
  // is exact in double and the <= threshold comparison has no rounding edge
  // (touching boxes have distance exactly 0 and always qualify).
  const double threshold = 2.0 * overload_;
  const fft::Range* mine[3] = {&box_.x, &box_.y, &box_.z};
  for (int r = 0; r < p; ++r) {
    const auto rbox = decomp_.box_of(r);
    const fft::Range* theirs[3] = {&rbox.x, &rbox.y, &rbox.z};
    double best = std::numeric_limits<double>::infinity();
    for (int sx = -1; sx <= 1; ++sx) {
      for (int sy = -1; sy <= 1; ++sy) {
        for (int sz = -1; sz <= 1; ++sz) {
          const std::array<int, 3> s{sx, sy, sz};
          double dist = 0.0;
          for (int d = 0; d < 3; ++d) {
            const auto sd = static_cast<std::size_t>(d);
            const double shift = static_cast<double>(s[sd]) *
                                 static_cast<double>(dims[sd]);
            const double alo = static_cast<double>(mine[d]->lo);
            const double ahi = static_cast<double>(mine[d]->hi);
            const double blo = static_cast<double>(theirs[d]->lo) + shift;
            const double bhi = static_cast<double>(theirs[d]->hi) + shift;
            const double gap = std::max(blo - ahi, alo - bhi);
            if (gap > dist) dist = gap;
          }
          if (dist < best) best = dist;
        }
      }
    }
    if (best <= threshold) {
      slot_of_[static_cast<std::size_t>(r)] =
          static_cast<int>(stencil_.size());
      stencil_.push_back(r);
    }
  }
}

bool OverloadDomain::owns(float x, float y, float z) const noexcept {
  return static_cast<double>(x) >= static_cast<double>(box_.x.lo) &&
         static_cast<double>(x) < static_cast<double>(box_.x.hi) &&
         static_cast<double>(y) >= static_cast<double>(box_.y.lo) &&
         static_cast<double>(y) < static_cast<double>(box_.y.hi) &&
         static_cast<double>(z) >= static_cast<double>(box_.z.lo) &&
         static_cast<double>(z) < static_cast<double>(box_.z.hi);
}

std::array<std::size_t, 2> OverloadDomain::census(
    const tree::ParticleArray& p) const {
  std::array<std::size_t, 2> counts{0, 0};
  for (std::size_t i = 0; i < p.size(); ++i)
    ++counts[p.role[i] == tree::Role::kActive ? 0 : 1];
  return counts;
}

std::span<const int> OverloadDomain::peers(Reach reach) const {
  return reach == Reach::kWorld ? all_ranks_ : stencil_;
}

std::size_t OverloadDomain::slot(int r, Reach reach) const {
  if (reach == Reach::kWorld) return static_cast<std::size_t>(r);
  const int s = slot_of_[static_cast<std::size_t>(r)];
  HACC_CHECK_MSG(s >= 0, "particle drifted beyond the refresh stencil");
  return static_cast<std::size_t>(s);
}

void OverloadDomain::layout_send_buffer() const {
  cursors_.resize(send_counts_.size());
  std::size_t total = 0;
  for (std::size_t s = 0; s < send_counts_.size(); ++s) {
    cursors_[s] = total;
    total += send_counts_[s];
  }
  send_buf_.resize(total);
}

void OverloadDomain::pack(std::size_t s, const tree::ParticleArray& p,
                          std::size_t i, float x, float y, float z) const {
  send_buf_[cursors_[s]++] = PackedParticle{
      x, y, z, p.vx[i], p.vy[i], p.vz[i], p.mass[i], p.ax[i], p.ay[i],
      p.az[i], p.id[i]};
}

void OverloadDomain::exchange(comm::Comm& comm, Reach reach,
                              tree::ParticleArray& particles,
                              tree::Role role) const {
  comm.neighbor_alltoallv(peers(reach),
                          std::span<const PackedParticle>(send_buf_),
                          std::span<const std::size_t>(send_counts_),
                          recv_buf_, recv_counts_);
  for (const PackedParticle& q : recv_buf_) {
    HACC_ASSERT(role == tree::Role::kPassive || owns(q.x, q.y, q.z));
    particles.push_back(q.x, q.y, q.z, q.vx, q.vy, q.vz, q.mass, q.id, role,
                        q.ax, q.ay, q.az);
  }
}

std::size_t OverloadDomain::migrate(comm::Comm& comm,
                                    tree::ParticleArray& particles,
                                    Reach reach) const {
  obs::TraceScope trace(kTrcMigrate);
  const auto& dims = decomp_.grid_dims();
  HACC_CHECK(comm.size() == decomp_.nranks());

  auto wrap = [&](float v, int axis) {
    const auto n = static_cast<double>(dims[static_cast<std::size_t>(axis)]);
    double w = std::fmod(static_cast<double>(v), n);
    if (w < 0) w += n;
    if (w >= n) w = 0.0;
    // The float cast can round w = n - epsilon back up to exactly n,
    // escaping the half-open [0, n); re-check after the narrowing.
    auto f = static_cast<float>(w);
    if (f >= static_cast<float>(n)) f = 0.0f;
    return f;
  };

  // Pass A: wrap every active, resolve its owner and count the leavers per
  // peer slot. Passives get owner -1: they are dropped below. An active
  // with a non-finite coordinate has no owner cell (fmod keeps a NaN, and
  // the cell cast would be undefined); it is counted, never cast, and the
  // pass refuses the whole set — damaged state, which the recovery loop
  // answers by restoring an older checkpoint.
  const std::size_t n = particles.size();
  owners_.resize(n);
  send_counts_.assign(peers(reach).size(), 0);
  std::size_t migrated = 0, nonfinite = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (particles.role[i] == tree::Role::kPassive) {
      owners_[i] = -1;
      continue;
    }
    if (!std::isfinite(particles.x[i]) || !std::isfinite(particles.y[i]) ||
        !std::isfinite(particles.z[i])) {
      owners_[i] = -1;
      ++nonfinite;
      continue;
    }
    particles.x[i] = wrap(particles.x[i], 0);
    particles.y[i] = wrap(particles.y[i], 1);
    particles.z[i] = wrap(particles.z[i], 2);
    int owner = rank_;
    if (!owns(particles.x[i], particles.y[i], particles.z[i])) {
      owner = decomp_.owner_of(static_cast<std::size_t>(particles.x[i]),
                               static_cast<std::size_t>(particles.y[i]),
                               static_cast<std::size_t>(particles.z[i]));
      ++migrated;
      ++send_counts_[slot(owner, reach)];
    }
    owners_[i] = owner;
  }
  HACC_CHECK_MSG(nonfinite == 0,
                 "migrate: " + std::to_string(nonfinite) +
                     " particle(s) with non-finite coordinates on rank " +
                     std::to_string(rank_));

  // Pass B: pack the leavers straight into the flat send buffer.
  layout_send_buffer();
  for (std::size_t i = 0; i < n; ++i) {
    if (owners_[i] >= 0 && owners_[i] != rank_)
      pack(slot(owners_[i], reach), particles, i, particles.x[i],
           particles.y[i], particles.z[i]);
  }

  // Keep the actives that stay (passives and leavers go), then take in the
  // arrivals.
  particles.retain_if([&](std::size_t i) { return owners_[i] == rank_; });
  exchange(comm, reach, particles, tree::Role::kActive);
  if (canonical_order_) particles.sort_by_id();
  obs::add_counter(kCtrMigrated, migrated);
  return migrated;
}

std::size_t OverloadDomain::replicate(comm::Comm& comm,
                                      tree::ParticleArray& particles) const {
  obs::TraceScope trace(kTrcReplicate);
  HACC_CHECK(comm.size() == decomp_.nranks());
  const std::size_t n = particles.size();
  auto inside = [](const Image& im, double px, double py, double pz) {
    return px >= im.lo[0] && px < im.hi[0] && py >= im.lo[1] &&
           py < im.hi[1] && pz >= im.lo[2] && pz < im.hi[2];
  };

  // Pass A: one replica packet per image whose overload slab contains the
  // active.
  send_counts_.assign(stencil_.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    HACC_CHECK_MSG(particles.role[i] == tree::Role::kActive,
                   "replicate() takes migrate()'s actives only");
    const double px = particles.x[i], py = particles.y[i],
                 pz = particles.z[i];
    for (const Image& im : images_)
      if (inside(im, px, py, pz))
        ++send_counts_[slot(im.nbr, Reach::kStencil)];
  }

  // Pass B: pack, positions expressed in the receiver's frame.
  layout_send_buffer();
  for (std::size_t i = 0; i < n; ++i) {
    const double px = particles.x[i], py = particles.y[i],
                 pz = particles.z[i];
    for (const Image& im : images_) {
      if (inside(im, px, py, pz))
        pack(slot(im.nbr, Reach::kStencil), particles, i,
             static_cast<float>(px - im.shift[0]),
             static_cast<float>(py - im.shift[1]),
             static_cast<float>(pz - im.shift[2]));
    }
  }
  exchange(comm, Reach::kStencil, particles, tree::Role::kPassive);

  obs::add_counter(kCtrRefreshed, n + recv_buf_.size());
  obs::set_gauge(kGaugeActive, n);
  obs::set_gauge(kGaugePassive, recv_buf_.size());
  return recv_buf_.size();
}

RefreshStats OverloadDomain::refresh(comm::Comm& comm,
                                     tree::ParticleArray& particles,
                                     Reach reach) const {
  RefreshStats stats;
  stats.migrated = migrate(comm, particles, reach);
  stats.active = particles.size();
  stats.passive = replicate(comm, particles);
  return stats;
}

}  // namespace hacc::core
