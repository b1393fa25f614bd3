#include "serve/insitu.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "gio/particle_io.h"
#include "obs/obs.h"
#include "util/error.h"
#include "util/timer.h"

namespace hacc::serve {

namespace {

const NameId kCtrCatalogs = obs::counter_id("insitu.catalogs_written");
const NameId kCtrHalos = obs::counter_id("insitu.halos");
const NameId kCtrSliceRows = obs::counter_id("insitu.slice_particles");
const obs::PhaseIds kPhaseFof = obs::phase_ids("insitu.fof");

std::string catalog_path(const std::string& dir, int step,
                         const char* product) {
  char name[64];
  std::snprintf(name, sizeof(name), "catalog_%06d.%s.gio", step, product);
  return dir + "/" + name;
}

double wrap(double v, double box) noexcept {
  v = std::fmod(v, box);
  return v < 0 ? v + box : v;
}

}  // namespace

std::string halos_path(const std::string& dir, int step) {
  return catalog_path(dir, step, "halos");
}
std::string spectrum_path(const std::string& dir, int step) {
  return catalog_path(dir, step, "spectrum");
}
std::string slice_path(const std::string& dir, int step) {
  return catalog_path(dir, step, "slice");
}

InSituReport write_catalogs(comm::Comm& comm, const InSituConfig& cfg,
                            int step, const gio::GlobalMeta& meta,
                            const tree::ParticleArray& particles,
                            std::span<const cosmology::PowerBin> spectrum,
                            const gio::GioConfig& gio_cfg) {
  HACC_CHECK_MSG(!cfg.output_dir.empty(),
                 "InSituConfig.output_dir must be set");
  Timer timer;
  InSituReport report;
  report.step = step;
  if (comm.rank() == 0)
    std::filesystem::create_directories(cfg.output_dir);
  comm.barrier();  // the directory exists before any writer opens a tmp file

  if (cfg.halos) {
    // Single-rank FOF over the gathered snapshot. The rows below are
    // rank-count-invariant in any gather order: the linked pairs depend
    // only on positions, members are summed in id order and a halo's id is
    // its minimum member id.
    const tree::ParticleArray snap = gio::gather_actives(comm, particles);
    std::uint64_t total = snap.size();
    total = comm.bcast_value(total, 0);
    std::vector<cosmology::Halo> halos;
    if (comm.rank() == 0 && total > 0) {
      cosmology::FofConfig fof;
      fof.linking_length = cfg.linking_length;
      fof.min_members = cfg.min_members;
      fof.box = static_cast<double>(meta.grid);
      fof.mean_spacing = static_cast<double>(meta.grid) /
                         std::cbrt(static_cast<double>(total));
      {
        obs::PhaseScope scope(kPhaseFof);
        halos = cosmology::find_halos(snap, fof);
      }
      // Catalog order: ascending halo id (min member particle id) — a total,
      // reproducible order independent of the mass sort's float values.
      std::sort(halos.begin(), halos.end(),
                [](const cosmology::Halo& a, const cosmology::Halo& b) {
                  return a.id < b.id;
                });
    }
    // Columns on rank 0; every rank participates in the collective write
    // with zero rows so the file still flows through the aggregators.
    const std::size_t n = halos.size();
    std::vector<std::uint64_t> halo_id(n), count(n);
    std::vector<float> mass(n), cx(n), cy(n), cz(n), vcx(n), vcy(n), vcz(n);
    for (std::size_t h = 0; h < n; ++h) {
      halo_id[h] = halos[h].id;
      count[h] = halos[h].members.size();
      mass[h] = static_cast<float>(halos[h].mass);
      cx[h] = static_cast<float>(halos[h].center[0]);
      cy[h] = static_cast<float>(halos[h].center[1]);
      cz[h] = static_cast<float>(halos[h].center[2]);
      vcx[h] = static_cast<float>(halos[h].velocity[0]);
      vcy[h] = static_cast<float>(halos[h].velocity[1]);
      vcz[h] = static_cast<float>(halos[h].velocity[2]);
    }
    const gio::WriteVar vars[] = {
        {"halo_id", gio::VarType::kUInt64, halo_id.data()},
        {"count", gio::VarType::kUInt64, count.data()},
        {"mass", gio::VarType::kFloat32, mass.data()},
        {"cx", gio::VarType::kFloat32, cx.data()},
        {"cy", gio::VarType::kFloat32, cy.data()},
        {"cz", gio::VarType::kFloat32, cz.data()},
        {"vcx", gio::VarType::kFloat32, vcx.data()},
        {"vcy", gio::VarType::kFloat32, vcy.data()},
        {"vcz", gio::VarType::kFloat32, vcz.data()},
    };
    const auto ws = gio::write(comm, halos_path(cfg.output_dir, step), meta,
                               n, vars, gio_cfg);
    report.halo_count = n;
    report.bytes_written += ws.file_bytes;
    obs::add_counter(kCtrHalos, n);
    obs::add_counter(kCtrCatalogs, 1);
  }

  if (cfg.spectrum) {
    // The measured P(k) is identical on every rank; rank 0 owns the rows.
    const std::size_t n = comm.rank() == 0 ? spectrum.size() : 0;
    std::vector<float> k(n), power(n);
    std::vector<std::uint64_t> modes(n);
    for (std::size_t i = 0; i < n; ++i) {
      k[i] = static_cast<float>(spectrum[i].k);
      power[i] = static_cast<float>(spectrum[i].power);
      modes[i] = spectrum[i].modes;
    }
    const gio::WriteVar vars[] = {
        {"k", gio::VarType::kFloat32, k.data()},
        {"power", gio::VarType::kFloat32, power.data()},
        {"modes", gio::VarType::kUInt64, modes.data()},
    };
    const auto ws = gio::write(comm, spectrum_path(cfg.output_dir, step),
                               meta, n, vars, gio_cfg);
    report.spectrum_bins = spectrum.size();
    report.bytes_written += ws.file_bytes;
    obs::add_counter(kCtrCatalogs, 1);
  }

  if (cfg.slice) {
    // Region cutout: every rank contributes its actives inside the z-slab
    // [0, slice_thickness) — a genuinely parallel product (each writer
    // block holds one rank's share, like a checkpoint).
    const double box = static_cast<double>(meta.grid);
    std::vector<float> x, y, z, vx, vy, vz;
    std::vector<std::uint64_t> id;
    for (std::size_t i = 0; i < particles.size(); ++i) {
      if (particles.role[i] != tree::Role::kActive) continue;
      if (wrap(particles.z[i], box) >= cfg.slice_thickness) continue;
      x.push_back(particles.x[i]);
      y.push_back(particles.y[i]);
      z.push_back(particles.z[i]);
      vx.push_back(particles.vx[i]);
      vy.push_back(particles.vy[i]);
      vz.push_back(particles.vz[i]);
      id.push_back(particles.id[i]);
    }
    const gio::WriteVar vars[] = {
        {"x", gio::VarType::kFloat32, x.data()},
        {"y", gio::VarType::kFloat32, y.data()},
        {"z", gio::VarType::kFloat32, z.data()},
        {"vx", gio::VarType::kFloat32, vx.data()},
        {"vy", gio::VarType::kFloat32, vy.data()},
        {"vz", gio::VarType::kFloat32, vz.data()},
        {"id", gio::VarType::kUInt64, id.data()},
    };
    const auto ws = gio::write(comm, slice_path(cfg.output_dir, step), meta,
                               x.size(), vars, gio_cfg);
    report.slice_particles =
        comm.allreduce_value<std::uint64_t>(x.size(), comm::ReduceOp::kSum);
    report.bytes_written += ws.file_bytes;
    obs::add_counter(kCtrSliceRows, x.size());
    obs::add_counter(kCtrCatalogs, 1);
  }

  report.seconds = timer.elapsed();
  return report;
}

}  // namespace hacc::serve
