// Structure-of-arrays particle storage.
//
// "The particle data is stored as a collection of arrays — the so-called
// structure-of-arrays (SOA) format. There are three arrays for the three
// spatial coordinates, three for the velocity components, in addition to
// arrays for mass, a particle identifier, etc." (paper Sec. III)
//
// Positions are single precision in grid units (HACC's mixed-precision
// scheme: particles and short-range forces in float, spectral math in
// double). The `tag` byte carries the overloading role (active/passive,
// paper Fig. 4).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "util/aligned.h"
#include "util/error.h"

namespace hacc::tree {

/// Overloading role of a particle on this rank.
enum class Role : std::uint8_t {
  kActive = 0,   ///< inside the rank's domain; deposited in the Poisson solve
  kPassive = 1,  ///< boundary-region replica; moved but not deposited
};

class ParticleArray {
 public:
  std::size_t size() const noexcept { return x.size(); }
  bool empty() const noexcept { return x.empty(); }

  void reserve(std::size_t n) {
    for_each_array(*this, [n](auto& v) { v.reserve(n); });
  }

  void clear() {
    for_each_array(*this, [](auto& v) { v.clear(); });
  }

  void push_back(float px, float py, float pz, float pvx, float pvy,
                 float pvz, float pmass, std::uint64_t pid,
                 Role prole = Role::kActive, float pax = 0.0f,
                 float pay = 0.0f, float paz = 0.0f) {
    x.push_back(px);
    y.push_back(py);
    z.push_back(pz);
    vx.push_back(pvx);
    vy.push_back(pvy);
    vz.push_back(pvz);
    mass.push_back(pmass);
    ax.push_back(pax);
    ay.push_back(pay);
    az.push_back(paz);
    id.push_back(pid);
    role.push_back(prole);
  }

  /// Copy particle j of `src` onto the end of this array.
  void append_from(const ParticleArray& src, std::size_t j) {
    push_back(src.x[j], src.y[j], src.z[j], src.vx[j], src.vy[j], src.vz[j],
              src.mass[j], src.id[j], src.role[j], src.ax[j], src.ay[j],
              src.az[j]);
  }

  /// Keep exactly the particles i with keep(i), in their current order
  /// (stable in-place compaction). `keep` is called once per particle, in
  /// ascending i, and may read particle i's fields: no slot is overwritten
  /// before it has been tested.
  template <typename Keep>
  void retain_if(Keep&& keep) {
    const std::size_t n = size();
    std::size_t w = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!keep(i)) continue;
      if (w != i) for_each_array(*this, [w, i](auto& v) { v[w] = v[i]; });
      ++w;
    }
    for_each_array(*this, [w](auto& v) { v.resize(w); });
  }

  /// Sort particles by ascending id. Establishes a *canonical order*
  /// independent of arrival history, which makes float summation order —
  /// and therefore the whole run — reproducible across restarts (message
  /// arrival and the elastic restore otherwise permute the array). For
  /// actives only: ids are unique among them, and a repeated id is refused.
  void sort_by_id() {
    std::vector<std::size_t> order(size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return id[a] < id[b]; });
    for (std::size_t k = 1; k < order.size(); ++k)
      HACC_CHECK_MSG(id[order[k - 1]] != id[order[k]],
                     "sort_by_id: particle id " +
                         std::to_string(id[order[k]]) + " is not unique");
    permute(order);
  }

  /// Reorder every array so that particle k becomes the particle at
  /// order[k]; `order` is a permutation of [0, size()).
  void permute(std::span<const std::size_t> order) {
    for_each_array(*this, [order](auto& v) { gather(v, order); });
  }

  /// Consistency check: every array has the same length.
  bool consistent() const noexcept {
    bool same = true;
    for_each_array(*this,
                   [&](const auto& v) { same = same && v.size() == size(); });
    return same;
  }

  aligned_vector<float> x, y, z;
  aligned_vector<float> vx, vy, vz;
  aligned_vector<float> mass;
  /// Long-range (PM) acceleration at the particle's position, in grid
  /// force units. The simulation interpolates it once per step, at the
  /// migrated actives, and replicas carry their owner's value; it is not
  /// checkpointed (a restore recomputes it from the positions).
  aligned_vector<float> ax, ay, az;
  aligned_vector<std::uint64_t> id;
  aligned_vector<Role> role;

 private:
  /// Apply `f` to every per-particle array (const or not, per `self`).
  template <typename Self, typename F>
  static void for_each_array(Self& self, F&& f) {
    f(self.x);
    f(self.y);
    f(self.z);
    f(self.vx);
    f(self.vy);
    f(self.vz);
    f(self.mass);
    f(self.ax);
    f(self.ay);
    f(self.az);
    f(self.id);
    f(self.role);
  }

  template <typename T>
  static void gather(aligned_vector<T>& v,
                     std::span<const std::size_t> order) {
    aligned_vector<T> out;
    out.reserve(v.size());
    for (const std::size_t i : order) out.push_back(v[i]);
    v = std::move(out);
  }
};

}  // namespace hacc::tree
