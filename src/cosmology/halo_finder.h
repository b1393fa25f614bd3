// Friends-of-friends (FOF) halo finder with subhalo splitting.
//
// Halos are the basic objects of the paper's science section (Sec. V):
// cluster mass functions, merger statistics, and the halo/sub-halo
// decomposition of Fig. 11. This is the standard FOF algorithm: particles
// closer than a linking length b times the mean inter-particle spacing are
// friends; connected components are halos. Sub-structure is extracted by
// re-linking each halo's members at a fraction of the parent linking
// length (a simple, deterministic stand-in for HACC's subhalo machinery).
//
// Implementation: candidate pairs come from a periodic chaining mesh of
// cells no smaller than the linking length, indexed over its occupied
// cells only (one sort by cell key), so memory is O(particles) whatever
// the box/linking-length ratio; union-find with path halving joins the
// pairs within the linking length (periodic distances on the box). Group
// sizes are counted before any member list is allocated, so only halos
// of at least `min_members` get one.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "tree/particles.h"

namespace hacc::cosmology {

struct Halo {
  std::vector<std::uint32_t> members;  ///< indices into the particle array
  /// Stable halo tag: the minimum member *particle* id (the standard FOF
  /// convention). Independent of particle array order, rank count, and
  /// thread count — catalog files keyed by it are reproducible.
  std::uint64_t id = 0;
  std::array<double, 3> center{};      ///< periodic center of mass (grid units)
  std::array<double, 3> velocity{};    ///< mean velocity
  double mass = 0;                     ///< sum of member masses
};

struct FofConfig {
  double linking_length = 0.2;  ///< b, in units of mean particle spacing
  std::size_t min_members = 10;
  double box = 0;  ///< periodic box side in grid units (required)
  double mean_spacing = 0;  ///< mean inter-particle spacing (grid units)
};

/// Find FOF halos over all particles (single-rank analysis; run it on a
/// gathered snapshot). Returns halos sorted by descending mass.
std::vector<Halo> find_halos(const tree::ParticleArray& particles,
                             const FofConfig& config);

/// Split one halo into subhalos by re-linking its members at
/// `sub_linking_fraction` times the parent linking length. Costs
/// O(members), not O(particles).
std::vector<Halo> find_subhalos(const tree::ParticleArray& particles,
                                const Halo& halo, const FofConfig& config,
                                double sub_linking_fraction = 0.5,
                                std::size_t min_members = 10);

/// Cumulative mass function: for each threshold mass in `edges` (ascending),
/// the number of halos with mass >= that threshold.
std::vector<std::size_t> mass_function(const std::vector<Halo>& halos,
                                       const std::vector<double>& edges);

}  // namespace hacc::cosmology
