// Particle overloading (paper Sec. II, Fig. 4).
//
// HACC's spatial domain decomposition is regular (non-cubic) 3-D blocks,
// but unlike the guard zones of a typical PM method, *full particle
// replication* is employed across domain boundaries: every rank stores,
// besides its own ("active", green in Fig. 4) particles, complete copies of
// all neighbor particles within the overload depth of its boundary
// ("passive", red). Passive particles are moved by forces but never
// deposited in the Poisson solve; they switch roles as they cross domain
// boundaries. The payoff: medium/long-range force calculations need no
// particle communication at all, and the short-range solver becomes a
// purely rank-local ("on-node") method that can be swapped per architecture
// with guaranteed scalability.
//
// A refresh is two sparse exchanges over the same stencil: migrate() hands
// every active that left the domain to its new owner, then replicate()
// copies the (now in-domain) actives into the neighbors' overload slabs.
// The simulation runs its one long-range solve between the two, so each
// replica carries its owner's exact long-range acceleration and passives
// are kicked with it instead of an interpolation of their own.
//
// Passive replicas are stored with *unwrapped* coordinates in the receiving
// rank's frame (a replica from across the periodic seam sits at x < 0 or
// x >= N), so short-range pair distances need no minimum-image logic.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/comm.h"
#include "mesh/grid.h"
#include "tree/particles.h"

namespace hacc::core {

/// Which ranks migrate() may hand a particle to.
enum class Reach {
  /// The refresh stencil (every step, and initialize()): a leaver has
  /// drifted at most a step's motion past the boundary, and one that needs
  /// a rank outside the stencil is refused.
  kStencil,
  /// Every rank (Simulation::read_checkpoint): an elastic read partitions
  /// the particles by file order, so each may belong to any rank.
  kWorld,
};

struct RefreshStats {
  std::size_t active = 0;     ///< active particles after the refresh
  std::size_t passive = 0;    ///< passive replicas after the refresh
  std::size_t migrated = 0;   ///< actives that changed owner
  double overload_fraction() const noexcept {
    return active ? static_cast<double>(passive) / static_cast<double>(active)
                  : 0.0;
  }
};

class OverloadDomain {
 public:
  /// `overload` is the replication depth in grid units; it must not exceed
  /// the smallest domain extent along any axis.
  OverloadDomain(const mesh::BlockDecomp3D& decomp, int rank,
                 double overload);

  const mesh::BlockDecomp3D& decomp() const noexcept { return decomp_; }
  const fft::Box3D& box() const noexcept { return box_; }
  double overload() const noexcept { return overload_; }
  int rank() const noexcept { return rank_; }

  /// True if a (wrapped, in [0,N)) position belongs to this rank's domain.
  bool owns(float x, float y, float z) const noexcept;

  /// Migration (collective, one sparse neighbor_alltoallv over `reach`'s
  /// peers): drop all passive replicas, wrap the actives into [0, N),
  /// send every active outside this rank's domain to its owner and append
  /// the arrivals. Afterwards the array holds exactly this rank's actives
  /// — in canonical (id) order when set_canonical_order() is on — and
  /// nothing else. Refuses an active with a non-finite coordinate (it has
  /// no owner) before routing anything. Returns the number of actives that
  /// left this rank.
  std::size_t migrate(comm::Comm& comm, tree::ParticleArray& particles,
                      Reach reach = Reach::kStencil) const;

  /// Replication (collective, one sparse neighbor_alltoallv over the
  /// stencil): copy every active into the overload slab of each of the 26
  /// neighbor images that contains it and append the copies received here
  /// as passives, in the receiver's unwrapped frame. Replicas carry every
  /// field, the long-range acceleration included. Requires migrate()'s
  /// output: only this rank's in-domain actives. Returns the number of
  /// passives appended.
  std::size_t replicate(comm::Comm& comm,
                        tree::ParticleArray& particles) const;

  /// Full overloading refresh: migrate() over `reach`, then replicate().
  RefreshStats refresh(comm::Comm& comm, tree::ParticleArray& particles,
                       Reach reach = Reach::kStencil) const;

  /// The sparse exchange stencil: every rank within L-inf min-image box
  /// distance <= 2*overload of this rank's domain (touching boxes — the 26
  /// Cartesian neighbors and self — always qualify, so the stencil is
  /// never empty). Both exchanges use it. replicate() needs only the
  /// touching ranks; the 2*overload reach is for migrate(), whose leavers
  /// may have drifted well past the boundary since the last refresh —
  /// migrate HACC_CHECKs that no leaver needs a rank outside it (except
  /// over Reach::kWorld, whose peers are every rank). Self is a
  /// member because on a small topology one of this rank's own periodic
  /// images can hold a replica; its block never crosses a rank boundary
  /// (memcpy fast path). Symmetric across ranks by construction (the
  /// distance is symmetric and exact — integer box bounds in double).
  const std::vector<int>& stencil() const noexcept { return stencil_; }

  /// Count (active, passive) without modifying anything.
  std::array<std::size_t, 2> census(const tree::ParticleArray& p) const;

  /// When set, migrate() sorts the actives into canonical (id) order after
  /// the arrivals are appended, so replicate() packs — and every rank
  /// receives — particles in an order that depends only on the actives'
  /// ids. This decouples the particle ordering — and with it every float
  /// summation order downstream — from the arrival/removal history, so a
  /// run restored from a checkpoint (which permutes particles through the
  /// elastic read and the every-rank migrate) evolves bit-for-bit like the
  /// uninterrupted one.
  void set_canonical_order(bool on) noexcept { canonical_order_ = on; }
  bool canonical_order() const noexcept { return canonical_order_; }

 private:
  /// Wire format of both exchanges (trivially copyable): every field of a
  /// particle but its role, which the exchange implies.
  struct PackedParticle {
    float x, y, z, vx, vy, vz, mass, ax, ay, az;
    std::uint64_t id;
  };

  /// One neighbor image: a rank viewed at a periodic offset, with its
  /// overload slab [lo, hi) expressed in this rank's frame and the shift to
  /// subtract when expressing a position in the receiver's frame.
  struct Image {
    int nbr = 0;
    std::array<double, 3> lo{}, hi{}, shift{};
  };

  /// The 26 neighbor images of this rank's domain (periodic offsets of the
  /// Cartesian topology), slabs widened by the overload depth.
  void build_images();
  void build_stencil();
  /// The exchange peers of `reach`: stencil_ or every rank.
  std::span<const int> peers(Reach reach) const;
  /// Slot of rank `r` in peers(reach); over the stencil, HACC_CHECKs that
  /// `r` is in it.
  std::size_t slot(int r, Reach reach) const;
  /// Size send_buf_ for send_counts_ and point each slot's cursor at its
  /// block (packets are then written in place, no staging copy).
  void layout_send_buffer() const;
  /// Write particle i, at position (x, y, z), into slot `s`'s block.
  void pack(std::size_t s, const tree::ParticleArray& p, std::size_t i,
            float x, float y, float z) const;
  /// Ship send_buf_ to `reach`'s peers and append what arrives to
  /// `particles` with `role`.
  void exchange(comm::Comm& comm, Reach reach, tree::ParticleArray& particles,
                tree::Role role) const;

  mesh::BlockDecomp3D decomp_;
  int rank_;
  fft::Box3D box_;
  double overload_;
  bool canonical_order_ = false;
  std::vector<int> stencil_;            ///< sparse exchange peers (sorted)
  std::vector<int> slot_of_;            ///< rank -> stencil slot, -1 absent
  std::vector<int> all_ranks_;          ///< 0..P-1: Reach::kWorld's peers
  std::array<Image, 26> images_{};      ///< this rank's images, precomputed
  // Exchange scratch, reused across calls so the steady state allocates
  // nothing (one OverloadDomain per rank thread; migrate and replicate are
  // not reentrant).
  mutable std::vector<int> owners_;
  mutable std::vector<PackedParticle> send_buf_, recv_buf_;
  mutable std::vector<std::size_t> send_counts_, recv_counts_, cursors_;
};

}  // namespace hacc::core
