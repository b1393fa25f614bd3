// In-situ analysis pipeline: science products streamed to disk during the
// run (Q Continuum, arXiv:1411.3396; Outer Rim, arXiv:1904.11970).
//
// At production scale a raw snapshot is too large to move off the machine,
// so the science product of a campaign is not particles but *catalogs*:
// FOF halos, power spectra, and light-cone/region slices, computed inside
// the stepping loop and written through the same aggregated, CRC-protected
// gio machinery as checkpoints. This module is the write half of the
// `serve` subsystem; CatalogStore/QueryServer are the read half.
//
// One in-situ step at cadence produces up to three self-describing gio
// files under the output directory:
//
//   catalog_<step>.halos.gio     halo_id count mass cx cy cz vcx vcy vcz
//   catalog_<step>.spectrum.gio  k power modes
//   catalog_<step>.slice.gio     x y z vx vy vz id   (a z-slab cutout)
//
// Determinism: the halo catalog is byte-stable across rank and thread
// counts, whatever order the gather leaves the actives in — FOF's linked
// pairs depend only on positions, halo members are summed in id order, and
// halos are written sorted by halo id (the minimum member particle id).
// FOF is timed as the phase `insitu.fof`; Simulation::run_insitu() nests
// it in its `insitu` phase.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "comm/comm.h"
#include "cosmology/halo_finder.h"
#include "cosmology/power_spectrum.h"
#include "gio/gio.h"
#include "tree/particles.h"

namespace hacc::serve {

struct InSituConfig {
  /// Run the pipeline every `cadence` steps (after the step completes);
  /// 0 disables it entirely.
  int cadence = 0;
  /// Catalog directory; created on first use. Required when cadence > 0.
  std::string output_dir;
  // Which products to stream.
  bool halos = true;
  bool spectrum = true;
  bool slice = true;
  /// FOF linking length b, in units of the mean inter-particle spacing.
  double linking_length = 0.2;
  /// Minimum FOF members for a halo to enter the catalog.
  std::size_t min_members = 8;
  /// Linear-in-k bins of the streamed power spectrum.
  std::size_t spectrum_bins = 32;
  /// Thickness of the region slice, in grid cells: actives with wrapped
  /// z in [0, slice_thickness) are written (a light-cone-slab stand-in).
  double slice_thickness = 4.0;
};

/// Catalog file names under `dir` (zero-padded step).
std::string halos_path(const std::string& dir, int step);
std::string spectrum_path(const std::string& dir, int step);
std::string slice_path(const std::string& dir, int step);

/// What one in-situ step produced (rank 0 perspective; counts are global).
struct InSituReport {
  int step = 0;
  std::size_t halo_count = 0;
  std::size_t spectrum_bins = 0;
  std::uint64_t slice_particles = 0;  ///< global rows in the slice catalog
  std::uint64_t bytes_written = 0;    ///< total catalog file bytes
  double seconds = 0;
};

/// Run the configured products for one completed step. Collective over
/// `comm`; `particles` is this rank's state in grid units, whose passive
/// replicas every product skips (they would double-count). The halo product
/// gathers the actives to rank 0 (the FOF finder is the repo's single-rank
/// analysis stand-in; the file still goes through the aggregated collective
/// writer). `spectrum` is the pre-measured P(k) of the current state,
/// identical on every rank (ignored when the product is disabled). Every
/// file appears atomically and durably via the gio tmp+rename publish.
InSituReport write_catalogs(comm::Comm& comm, const InSituConfig& cfg,
                            int step, const gio::GlobalMeta& meta,
                            const tree::ParticleArray& particles,
                            std::span<const cosmology::PowerBin> spectrum,
                            const gio::GioConfig& gio_cfg = {});

}  // namespace hacc::serve
