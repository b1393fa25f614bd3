#include "gio/particle_io.h"

#include <array>
#include <cstring>
#include <limits>

#include "obs/obs.h"
#include "util/error.h"

namespace hacc::gio {

namespace {

const NameId kTrcWrite = intern_name("gio.write");
const NameId kTrcRead = intern_name("gio.read");
const NameId kCtrBytesWritten = obs::counter_id("gio.bytes_written");
const NameId kCtrBytesRead = obs::counter_id("gio.bytes_read");
const NameId kCtrParticlesWritten =
    obs::counter_id("gio.particles_written");

// The SoA arrays are dumped as raw element streams; pin down the layout the
// format assumes so a compiler/ABI change cannot silently corrupt files.
static_assert(sizeof(float) == 4 && std::numeric_limits<float>::is_iec559,
              "gio float32 variables require 32-bit IEEE float");
static_assert(sizeof(std::uint64_t) == 8);
static_assert(sizeof(tree::Role) == 1,
              "gio uint8 role variable requires a 1-byte Role");
static_assert(static_cast<std::uint8_t>(tree::Role::kActive) == 0 &&
              static_cast<std::uint8_t>(tree::Role::kPassive) == 1);

constexpr const char* kFloatVars[7] = {"x", "y", "z", "vx", "vy", "vz", "mass"};

/// Wire format of the root gather (trivially copyable).
struct PackedParticle {
  float x, y, z, vx, vy, vz, mass;
  std::uint32_t role;
  std::uint64_t id;
};

PackedParticle pack(const tree::ParticleArray& p, std::size_t i) {
  return PackedParticle{p.x[i], p.y[i], p.z[i], p.vx[i], p.vy[i], p.vz[i],
                        p.mass[i], static_cast<std::uint32_t>(p.role[i]),
                        p.id[i]};
}

/// Append the unpacked particles to `out`.
void unpack(std::span<const PackedParticle> in, tree::ParticleArray& out) {
  out.reserve(out.size() + in.size());
  for (const auto& q : in)
    out.push_back(q.x, q.y, q.z, q.vx, q.vy, q.vz, q.mass, q.id,
                  static_cast<tree::Role>(q.role));
}

}  // namespace

WriteStats write_particles(comm::Comm& comm, const std::string& path,
                           const GlobalMeta& meta,
                           const tree::ParticleArray& p,
                           const GioConfig& cfg) {
  HACC_CHECK(p.consistent());
  const std::array<const float*, 7> floats{p.x.data(), p.y.data(), p.z.data(),
                                           p.vx.data(), p.vy.data(),
                                           p.vz.data(), p.mass.data()};
  std::vector<WriteVar> vars;
  for (std::size_t i = 0; i < floats.size(); ++i)
    vars.push_back(WriteVar{kFloatVars[i], VarType::kFloat32, floats[i]});
  vars.push_back(WriteVar{"id", VarType::kUInt64, p.id.data()});
  vars.push_back(WriteVar{"role", VarType::kUInt8, p.role.data()});
  obs::TraceScope trace(kTrcWrite);
  const WriteStats stats = write(comm, path, meta, p.size(), vars, cfg);
  // file_bytes/payload_bytes are global; attribute the local share instead
  // so cross-rank counter sums remain meaningful.
  std::size_t local_bytes = 0;
  for (const auto& v : vars) local_bytes += p.size() * var_type_size(v.type);
  obs::add_counter(kCtrBytesWritten, local_bytes);
  obs::add_counter(kCtrParticlesWritten, p.size());
  return stats;
}

ReadReport read_particles(comm::Comm& comm, const std::string& path,
                          tree::ParticleArray& out) {
  std::array<std::vector<std::byte>, 7> fbytes;
  std::vector<std::byte> id_bytes, role_bytes;
  std::vector<ReadVar> vars;
  for (std::size_t i = 0; i < fbytes.size(); ++i)
    vars.push_back(ReadVar{kFloatVars[i], VarType::kFloat32, &fbytes[i]});
  vars.push_back(ReadVar{"id", VarType::kUInt64, &id_bytes});
  vars.push_back(ReadVar{"role", VarType::kUInt8, &role_bytes});
  obs::TraceScope trace(kTrcRead);
  const ReadReport report = read(comm, path, vars);

  const std::size_t n = static_cast<std::size_t>(report.local_particles);
  out.clear();
  std::array<aligned_vector<float>*, 7> dst{
      &out.x, &out.y, &out.z, &out.vx, &out.vy, &out.vz, &out.mass};
  for (std::size_t i = 0; i < dst.size(); ++i) {
    HACC_CHECK(fbytes[i].size() == n * sizeof(float));
    dst[i]->resize(n);
    std::memcpy(dst[i]->data(), fbytes[i].data(), fbytes[i].size());
  }
  HACC_CHECK(id_bytes.size() == n * sizeof(std::uint64_t));
  out.id.resize(n);
  std::memcpy(out.id.data(), id_bytes.data(), id_bytes.size());
  HACC_CHECK(role_bytes.size() == n);
  out.role.resize(n);
  std::memcpy(out.role.data(), role_bytes.data(), role_bytes.size());
  // The acceleration is not a checkpoint variable: the reader rebuilds it
  // from the positions.
  out.ax.assign(n, 0.0f);
  out.ay.assign(n, 0.0f);
  out.az.assign(n, 0.0f);
  HACC_CHECK(out.consistent());
  std::size_t local_bytes = id_bytes.size() + role_bytes.size();
  for (const auto& b : fbytes) local_bytes += b.size();
  obs::add_counter(kCtrBytesRead, local_bytes);
  return report;
}

tree::ParticleArray gather_actives(comm::Comm& comm,
                                   const tree::ParticleArray& particles) {
  std::vector<PackedParticle> mine;
  for (std::size_t i = 0; i < particles.size(); ++i)
    if (particles.role[i] == tree::Role::kActive)
      mine.push_back(pack(particles, i));
  tree::ParticleArray out;
  unpack(comm.gatherv(std::span<const PackedParticle>(mine), 0), out);
  return out;
}

}  // namespace hacc::gio
