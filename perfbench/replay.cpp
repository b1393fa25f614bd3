#include "replay.h"

#include <omp.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "comm/telemetry.h"
#include "core/audit.h"
#include "cosmology/halo_finder.h"
#include "cosmology/initial_conditions.h"
#include "gio/particle_io.h"
#include "mesh/cic.h"
#include "obs/obs.h"
#include "serve/insitu.h"

namespace perfbench {

using namespace hacc;

namespace {

// The op classes whose traffic the benchmark reports per step.
constexpr std::array<std::pair<comm::telemetry::Op, const char*>, 5> kOps{{
    {comm::telemetry::Op::kAlltoall, "alltoall"},
    {comm::telemetry::Op::kNeighborAlltoall, "nbr_alltoall"},
    {comm::telemetry::Op::kReduce, "reduce"},
    {comm::telemetry::Op::kBcast, "bcast"},
    {comm::telemetry::Op::kP2p, "p2p"},
}};

const NameId kCtrTransposeBytes = obs::counter_id("fft.transpose.bytes");

tree::ParticleArray actives_of(const tree::ParticleArray& p) {
  tree::ParticleArray out;
  for (std::size_t i = 0; i < p.size(); ++i)
    if (p.role[i] == tree::Role::kActive) out.append_from(p, i);
  return out;
}

void kick(tree::ParticleArray& p, float c, const std::vector<float>& ax,
          const std::vector<float>& ay, const std::vector<float>& az) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.vx[i] += c * ax[i];
    p.vy[i] += c * ay[i];
    p.vz[i] += c * az[i];
  }
}

void drift(tree::ParticleArray& p, double factor) {
  const auto f = static_cast<float>(factor);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] += f * p.vx[i];
    p.y[i] += f * p.vy[i];
    p.z[i] += f * p.vz[i];
  }
}

}  // namespace

bool is_global_count(const std::string& name) {
  return name == "gio.bytes_per_checkpoint" || name == "gio.read_bytes" ||
         name == "serve.catalog_bytes";
}

Replayer::Replayer(comm::Comm& comm, core::Simulation& sim,
                   const Workload& workload, SpanLog& log, std::string dir)
    : comm_(comm),
      sim_(sim),
      workload_(workload),
      log_(log),
      dir_(std::move(dir)),
      poisson_(comm, sim.domain().decomp(), sim.config().spectral) {
  // The same pencil plan and block<->pencil layouts PoissonSolver builds,
  // so the probes run the solver's transforms on the solver's layouts.
  const mesh::BlockDecomp3D& decomp = sim.domain().decomp();
  const auto& dims = decomp.grid_dims();
  fft_ = std::make_unique<fft::PencilFft3D>(
      fft::PencilFft3D::balanced(comm, dims[0], dims[1], dims[2]));
  std::vector<fft::Box3D> block_boxes, pencil_boxes;
  for (int r = 0; r < comm.size(); ++r) {
    block_boxes.push_back(decomp.box_of(r));
    const int q1 = r / fft_->p2(), q2 = r % fft_->p2();
    pencil_boxes.push_back(
        fft::Box3D{fft::block_range(dims[0], fft_->p1(), q1),
                   fft::block_range(dims[1], fft_->p2(), q2),
                   fft::Range{0, dims[2]}});
  }
  remap_ = std::make_unique<mesh::Redistributor>(std::move(block_boxes),
                                                 std::move(pencil_boxes));
  walk_lists_.resize(static_cast<std::size_t>(omp_get_max_threads()));
}

template <typename F>
int Replayer::layer(const char* name, int parent, F&& fn) {
  const int id = log_.time(name, parent, std::forward<F>(fn));
  const std::uint64_t t1 = log_.spans()[static_cast<std::size_t>(id)].end_ns;
  comm_.barrier();
  log_.add("comm.wait", parent, t1, util::now_ns());
  return id;
}

template <typename F>
void Replayer::probe(const char* name, int parent, F&& fn) {
  obs::Binding quiet(nullptr, nullptr);
  comm_.barrier();
  log_.time(name, parent, std::forward<F>(fn));
  comm_.barrier();
}

template <typename F>
void Replayer::root_probe(const char* name, int parent, F&& fn) {
  obs::Binding quiet(nullptr, nullptr);
  comm_.barrier();
  std::array<std::uint64_t, 2> t{util::now_ns(), 0};
  if (comm_.rank() == 0) fn();
  t[1] = util::now_ns();
  comm_.bcast(std::span<std::uint64_t>(t), 0);
  log_.add(name, parent, t[0], t[1]);
}

std::map<std::string, double> Replayer::counter_values() const {
  std::map<std::string, double> v;
  for (const auto& [op, name] : kOps) {
    const auto& ids = comm::telemetry::ids(op);
    v[std::string("comm.") + name + ".bytes_sent"] =
        static_cast<double>(counters_.value(ids.bytes_sent));
    v[std::string("comm.") + name + ".msgs_sent"] =
        static_cast<double>(counters_.value(ids.msgs_sent));
  }
  v["fft.transpose_bytes"] =
      static_cast<double>(counters_.value(kCtrTransposeBytes));
  return v;
}

void Replayer::fft_probes(const mesh::DistGrid& delta, int parent) {
  const auto& box = delta.interior();
  interior_.resize(box.volume());
  std::size_t idx = 0;
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(box.x.extent());
       ++i)
    for (std::ptrdiff_t j = 0;
         j < static_cast<std::ptrdiff_t>(box.y.extent()); ++j)
      for (std::ptrdiff_t k = 0;
           k < static_cast<std::ptrdiff_t>(box.z.extent()); ++k)
        interior_[idx++] = delta.at(i, j, k);
  probe("mesh.remap", parent,
        [&] { pencil_ = remap_->forward(comm_, interior_); });
  probe("fft.forward", parent,
        [&] { fft_->forward_r2c(std::span<const double>(pencil_), spectrum_); });
  for (int axis = 0; axis < 3; ++axis) {
    component_ = spectrum_;
    probe("fft.inverse", parent,
          [&] { fft_->inverse_c2r(component_, real_); });
    probe("mesh.remap", parent,
          [&] { interior_ = remap_->backward(comm_, real_); });
  }
}

void Replayer::walk_probe(const tree::RcbTree* tree, int parent) {
  const float rcut = sim_.kernel().rmax;
  probe("tree.walk", parent, [&] {
    if (tree == nullptr) return;
    const auto& leaves = tree->leaves();
#pragma omp parallel
    {
      tree::NeighborList& list =
          walk_lists_[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(dynamic, 1)
      for (std::size_t li = 0; li < leaves.size(); ++li)
        tree->gather_neighbors(leaves[li], rcut, list);
    }
  });
}

void Replayer::long_range_half(tree::ParticleArray& p, double factor,
                               int root) {
  const core::SimulationConfig& cfg = sim_.config();
  const mesh::BlockDecomp3D& decomp = sim_.domain().decomp();
  const auto ghost = static_cast<std::size_t>(std::ceil(cfg.overload)) + 2;
  const int rank = comm_.rank();
  mesh::DistGrid rho(decomp, rank, ghost);
  layer("mesh.cic_deposit", root, [&] {
    std::vector<float> xs, ys, zs;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p.role[i] != tree::Role::kActive) continue;
      xs.push_back(p.x[i]);
      ys.push_back(p.y[i]);
      zs.push_back(p.z[i]);
    }
    if (cfg.threaded_deposit)
      mesh::cic_deposit_threaded(rho, xs, ys, zs, 1.0f);
    else
      mesh::cic_deposit(rho, xs, ys, zs, 1.0f);
  });
  layer("mesh.ghost_fold", root, [&] { rho.fold_ghosts(comm_); });
  layer("mesh.density_contrast", root,
        [&] { mesh::to_density_contrast(rho, comm_); });
  std::array<mesh::DistGrid, 3> force{mesh::DistGrid(decomp, rank, ghost),
                                      mesh::DistGrid(decomp, rank, ghost),
                                      mesh::DistGrid(decomp, rank, ghost)};
  const int solve = layer("mesh.poisson", root,
                          [&] { poisson_.solve(comm_, rho, force); });
  fft_probes(rho, solve);
  layer("mesh.ghost_fill", root, [&] {
    for (auto& f : force) f.fill_ghosts(comm_);
  });
  std::vector<float> gx(p.size()), gy(p.size()), gz(p.size());
  layer("mesh.cic_interp", root, [&] {
    mesh::cic_interpolate(force[0], p.x, p.y, p.z, gx, true);
    mesh::cic_interpolate(force[1], p.x, p.y, p.z, gy, true);
    mesh::cic_interpolate(force[2], p.x, p.y, p.z, gz, true);
  });
  layer("core.kick", root,
        [&] { kick(p, static_cast<float>(factor), gx, gy, gz); });
}

ReplayResult Replayer::replay_step() {
  const core::SimulationConfig& cfg = sim_.config();
  const cosmology::Cosmology& cosmo = sim_.cosmology();
  const bool tree_solver = cfg.solver == core::ShortRangeSolver::kTreePP;
  const bool audits = cfg.audit.cadence > 0;
  const int step = sim_.steps_taken() + 1;
  const std::string tag = "step" + std::to_string(++replays_);
  ReplayResult out;

  // The step's time grid, exactly as Simulation::step() derives it.
  const double a0 = sim_.current_a();
  const double a_init = cosmology::Cosmology::a_of_z(cfg.z_initial);
  const double a_final = cosmology::Cosmology::a_of_z(cfg.z_final);
  const double a1 = std::min(a0 + (a_final - a_init) / cfg.steps, a_final);
  const double am = 0.5 * (a0 + a1);
  const double lr = 1.5 * cosmo.omega_m;

  tree::ParticleArray p = sim_.particles();
  const tree::ParticleArray actives = actives_of(p);
  const std::string ckpt = dir_ + "/ckpt_" + tag + ".gio";
  counters_.clear();
  const int root = log_.open("replay.step");
  {
    obs::Binding bind(nullptr, &counters_);
    layer("core.audit", root, [&] {
      if (audits && cfg.audit.checksum)
        (void)core::particle_checksum(sim_.particles(), cfg.canonical_order);
    });
    long_range_half(p, lr * cosmo.kick_factor(a0, am), root);

    const auto variant = tree::kernel_variant_from_env(cfg.kernel);
    std::vector<float> ax, ay, az;
    std::optional<tree::RcbTree> rcb;
    double interactions = 0, visits = 0;
    for (int c = 0; c < cfg.subcycles; ++c) {
      const double b0 = a0 + (a1 - a0) * c / cfg.subcycles;
      const double b1 = a0 + (a1 - a0) * (c + 1) / cfg.subcycles;
      const double bm = 0.5 * (b0 + b1);
      layer("core.stream", root, [&] { drift(p, cosmo.drift_factor(b0, bm)); });
      layer("tree.build", root, [&] {
        if (tree_solver) rcb.emplace(p, tree::RcbConfig{cfg.leaf_size});
      });
      const int sr = layer("tree.short_range", root, [&] {
        if (!tree_solver) return;
        ax.assign(p.size(), 0.0f);
        ay.assign(p.size(), 0.0f);
        az.assign(p.size(), 0.0f);
        const tree::InteractionStats s = tree::compute_short_range(
            *rcb, sim_.kernel(), ax, ay, az, sim_.mass_scale(), variant,
            &workspace_);
        interactions += static_cast<double>(s.interactions);
        visits += static_cast<double>(s.walk_visits);
      });
      walk_probe(tree_solver ? &*rcb : nullptr, sr);
      if (c == 0)
        layer("core.audit", root, [&] {
          if (tree_solver && audits && cfg.audit.duplicate_execution)
            (void)core::duplicate_execution_check(
                *rcb, sim_.kernel(), ax, ay, az, sim_.mass_scale(), cfg.audit,
                static_cast<std::uint64_t>(step));
        });
      layer("core.kick", root, [&] {
        if (tree_solver)
          kick(p, static_cast<float>(lr * cosmo.kick_factor(b0, b1)), ax, ay,
               az);
      });
      layer("core.stream", root, [&] { drift(p, cosmo.drift_factor(bm, b1)); });
    }
    out.counts["tree.interactions"] = interactions;
    out.counts["tree.walk_visits"] = visits;
    rcb.reset();

    long_range_half(p, lr * cosmo.kick_factor(am, a1), root);

    const NameId nbr_bytes =
        comm::telemetry::ids(comm::telemetry::Op::kNeighborAlltoall).bytes_sent;
    const std::uint64_t bytes_before = counters_.value(nbr_bytes);
    core::RefreshStats refreshed;
    layer("core.refresh", root,
          [&] { refreshed = sim_.domain().refresh(comm_, p); });
    out.counts["core.refresh_migrated"] =
        static_cast<double>(refreshed.migrated);
    out.counts["core.refresh_bytes"] =
        static_cast<double>(counters_.value(nbr_bytes) - bytes_before);

    // In-situ products (inside step() at cadence 1 on the supervised
    // workload): P(k), then the catalogs with FOF split out by a probe.
    serve::InSituConfig insitu = cfg.insitu;
    insitu.output_dir = dir_ + "/catalogs";
    gio::GlobalMeta meta;
    meta.scale_factor = a0;
    meta.box_mpch = cfg.box_mpch;
    meta.grid = cfg.grid;
    gio::GioConfig gcfg;
    gcfg.aggregators = cfg.io_aggregators;
    gcfg.verify_after_write = cfg.checkpoint_verify;
    std::vector<cosmology::PowerBin> spectrum;
    layer("cosmology.pk", root, [&] {
      if (workload_.supervised)
        spectrum = sim_.power_spectrum(insitu.spectrum_bins);
    });
    const int catalogs = layer("serve.catalogs", root, [&] {
      if (!workload_.supervised) return;
      const serve::InSituReport r = serve::write_catalogs(
          comm_, insitu, step, meta, actives, spectrum, gcfg);
      out.counts["serve.catalog_bytes"] = static_cast<double>(r.bytes_written);
    });
    {
      tree::ParticleArray snap;
      if (workload_.supervised) {
        obs::Binding quiet(nullptr, nullptr);
        snap = sim_.gather_active();
      }
      root_probe("cosmology.fof", catalogs, [&] {
        if (snap.empty()) return;
        snap.sort_by_id();
        cosmology::FofConfig fof;
        fof.linking_length = insitu.linking_length;
        fof.min_members = insitu.min_members;
        fof.box = static_cast<double>(cfg.grid);
        fof.mean_spacing = static_cast<double>(cfg.grid) /
                           std::cbrt(static_cast<double>(snap.size()));
        (void)cosmology::find_halos(snap, fof);
      });
    }
    layer("core.audit", root, [&] {
      if (audits && cfg.audit.checksum)
        (void)core::particle_checksum(sim_.particles(), cfg.canonical_order);
    });

    // The Supervisor's per-step iteration around step(): ledger record,
    // health gate, verified checkpoint.
    layer("obs.ledger", root, [&] {
      if (!cfg.ledger_path.empty()) sim_.record_step_ledger();
    });
    layer("core.health_check", root, [&] {
      if (workload_.supervised) (void)sim_.health_check();
    });
    const int write = layer("gio.write", root, [&] {
      if (!workload_.supervised) return;
      const gio::WriteStats ws =
          gio::write_particles(comm_, ckpt, meta, actives, gcfg);
      out.counts["gio.bytes_per_checkpoint"] =
          static_cast<double>(ws.file_bytes);
    });
    root_probe("gio.verify", write, [&] {
      if (workload_.supervised) (void)gio::verify_file(ckpt);
    });
    log_.close(root);
    for (const auto& [name, value] : counter_values()) out.counts[name] = value;
  }
  out.self_s = log_.self_seconds(root);
  out.total_s = log_.total_seconds(root);
  out.covered_s = log_.children_seconds(root);
  out.step_s = log_.spans()[static_cast<std::size_t>(root)].seconds();

  // Restore side: the elastic read of the checkpoint just written.
  const int restore = log_.open("replay.restore");
  layer("gio.read", restore, [&] {
    if (!workload_.supervised) return;
    tree::ParticleArray scratch;
    const gio::ReadReport r = gio::read_particles(comm_, ckpt, scratch);
    out.counts["gio.read_bytes"] = static_cast<double>(r.payload_bytes);
  });
  log_.close(restore);
  out.self_s["gio.read"] = log_.self_seconds(restore)["gio.read"];
  return out;
}

double Replayer::replay_ic() {
  const core::SimulationConfig& cfg = sim_.config();
  cosmology::IcConfig ic = cfg.ic;
  ic.particles_per_dim = cfg.particles_per_dim;
  ic.box_mpch = cfg.box_mpch;
  ic.z_init = cfg.z_initial;
  ic.seed = cfg.seed;
  const int root = log_.open("replay.setup");
  tree::ParticleArray scratch;
  layer("cosmology.ic", root, [&] {
    cosmology::generate_zeldovich(comm_, sim_.domain().decomp(),
                                  sim_.cosmology(), ic, scratch);
  });
  log_.close(root);
  return log_.self_seconds(root)["cosmology.ic"];
}

}  // namespace perfbench
