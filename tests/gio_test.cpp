// Tests for the GenericIO-style parallel particle I/O subsystem: CRC64,
// aggregated writes, rank-count-elastic reads, corruption
// detection/skip-and-report, redundant-header recovery, and the atomic
// tmp+rename publish.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <tuple>

#include "comm/comm.h"
#include "gio/crc64.h"
#include "gio/gio.h"
#include "gio/particle_io.h"
#include "util/rng.h"

namespace hacc::gio {
namespace {

namespace fs = std::filesystem;

using tree::ParticleArray;
using tree::Role;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

/// Deterministic per-rank particles: ids encode (rank, index) so elastic
/// round trips can be checked field by field.
ParticleArray rank_particles(int rank, std::size_t n, std::size_t box) {
  ParticleArray p;
  Philox rng(1234 + static_cast<std::uint64_t>(rank));
  Philox::Stream s(rng);
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back(static_cast<float>(s.uniform(0, static_cast<double>(box))),
                static_cast<float>(s.uniform(0, static_cast<double>(box))),
                static_cast<float>(s.uniform(0, static_cast<double>(box))),
                static_cast<float>(s.gaussian()),
                static_cast<float>(s.gaussian()),
                static_cast<float>(s.gaussian()), 1.0f,
                static_cast<std::uint64_t>(rank) * 1000000 + i, Role::kActive);
  }
  return p;
}

using Key = std::uint64_t;
using Fields = std::array<std::uint32_t, 7>;  // float bit patterns

/// Bit-exact (id -> field bit patterns) map of an array.
std::map<Key, Fields> fingerprint(const ParticleArray& p) {
  std::map<Key, Fields> out;
  auto bits = [](float f) {
    std::uint32_t u;
    std::memcpy(&u, &f, 4);
    return u;
  };
  for (std::size_t i = 0; i < p.size(); ++i)
    out[p.id[i]] = Fields{bits(p.x[i]), bits(p.y[i]), bits(p.z[i]),
                          bits(p.vx[i]), bits(p.vy[i]), bits(p.vz[i]),
                          bits(p.mass[i])};
  return out;
}

TEST(Crc64, KnownVectorAndChaining) {
  EXPECT_EQ(crc64("123456789", 9), 0x995dc9bbdf1939faULL);
  EXPECT_EQ(crc64("", 0), 0u);
  // Chaining: crc(ab) == crc(b, seed=crc(a)).
  const std::uint64_t whole = crc64("hello world", 11);
  const std::uint64_t part = crc64("hello ", 6);
  EXPECT_EQ(crc64("world", 5, part), whole);
  EXPECT_NE(crc64("ab", 2), crc64("ba", 2));
}

TEST(Gio, RoundTripsVariablesAndMeta) {
  const std::string path = temp_path("hacc_gio_rt.gio");
  const std::size_t n = 300;
  std::vector<float> xs(n);
  std::vector<std::uint64_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = static_cast<float>(i) * 0.25f;
    ids[i] = 7000 + i;
  }
  comm::Machine::run(1, [&](comm::Comm& c) {
    GlobalMeta meta;
    meta.scale_factor = 0.5;
    meta.box_mpch = 128.0;
    meta.grid = 64;
    std::vector<WriteVar> wv{{"x", VarType::kFloat32, xs.data()},
                             {"id", VarType::kUInt64, ids.data()}};
    const auto stats = write(c, path, meta, n, wv);
    EXPECT_EQ(stats.payload_bytes, n * 12);
    EXPECT_EQ(stats.file_bytes, fs::file_size(path));

    std::vector<std::byte> xb, idb;
    std::vector<ReadVar> rv{{"x", VarType::kFloat32, &xb},
                            {"id", VarType::kUInt64, &idb}};
    const auto report = read(c, path, rv);
    EXPECT_FALSE(report.used_redundant_header);
    EXPECT_TRUE(report.corrupt.empty());
    EXPECT_EQ(report.total_particles, n);
    EXPECT_EQ(report.local_particles, n);
    EXPECT_DOUBLE_EQ(report.meta.scale_factor, 0.5);
    EXPECT_DOUBLE_EQ(report.meta.box_mpch, 128.0);
    EXPECT_EQ(report.meta.grid, 64u);
    ASSERT_EQ(xb.size(), n * 4);
    ASSERT_EQ(idb.size(), n * 8);
    EXPECT_EQ(std::memcmp(xb.data(), xs.data(), xb.size()), 0);
    EXPECT_EQ(std::memcmp(idb.data(), ids.data(), idb.size()), 0);
  });
  fs::remove(path);
}

TEST(Gio, HeaderStartsWithLittleEndianMagicVersionAndSentinel) {
  // The fixed header is written field by field (gio/wire.h), never as a
  // struct dump: "HACCGIO1" as a little-endian u64, then version 1, then
  // the endian sentinel, with no padding between them.
  const std::string path = temp_path("hacc_gio_header.gio");
  comm::Machine::run(1, [&](comm::Comm& c) {
    float v = 1.0f;
    std::vector<WriteVar> wv{{"x", VarType::kFloat32, &v}};
    write(c, path, GlobalMeta{}, 1, wv);
  });
  std::ifstream f(path, std::ios::binary);
  unsigned char head[16];
  f.read(reinterpret_cast<char*>(head), sizeof(head));
  ASSERT_TRUE(f);
  auto le = [&](int at, int bytes) {
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
      v |= static_cast<std::uint64_t>(head[at + i]) << (8 * i);
    return v;
  };
  EXPECT_EQ(le(0, 8), 0x314F494743434148ULL);
  EXPECT_EQ(le(8, 4), 1u);
  EXPECT_EQ(le(12, 4), 0x01020304u);
  fs::remove(path);
}

TEST(Gio, MissingVariableAndMissingFileThrow) {
  const std::string path = temp_path("hacc_gio_missing.gio");
  comm::Machine::run(1, [&](comm::Comm& c) {
    float v = 1.0f;
    std::vector<WriteVar> wv{{"x", VarType::kFloat32, &v}};
    write(c, path, GlobalMeta{}, 1, wv);
    std::vector<std::byte> out;
    std::vector<ReadVar> bad{{"nope", VarType::kFloat32, &out}};
    EXPECT_THROW(read(c, path, bad), Error);
    std::vector<ReadVar> mistyped{{"x", VarType::kUInt64, &out}};
    EXPECT_THROW(read(c, path, mistyped), Error);
    EXPECT_THROW(BlockFile{temp_path("hacc_gio_does_not_exist.gio")}, Error);
  });
  fs::remove(path);
}

TEST(Gio, AggregatorCountDoesNotChangeTheFile) {
  // The layout is deterministic from (meta, counts, vars): funnelling the
  // same blocks through 1, 2 or 4 writers must produce identical bytes.
  const int nranks = 4;
  std::vector<std::string> paths;
  for (int m : {1, 2, 4}) {
    const std::string path =
        temp_path("hacc_gio_agg" + std::to_string(m) + ".gio");
    paths.push_back(path);
    comm::Machine::run(nranks, [&](comm::Comm& c) {
      // Unequal counts to exercise the offset math.
      auto p = rank_particles(c.rank(), 50 + 30 * static_cast<std::size_t>(
                                                       c.rank()), 16);
      GioConfig cfg;
      cfg.aggregators = m;
      GlobalMeta meta;
      meta.grid = 16;
      const auto stats = write_particles(c, path, meta, p, cfg);
      if (c.rank() == 0) {
        EXPECT_EQ(stats.aggregators, m);
      }
    });
  }
  std::ifstream a(paths[0], std::ios::binary), b(paths[1], std::ios::binary),
      d(paths[2], std::ios::binary);
  std::vector<char> ba((std::istreambuf_iterator<char>(a)), {});
  std::vector<char> bb((std::istreambuf_iterator<char>(b)), {});
  std::vector<char> bd((std::istreambuf_iterator<char>(d)), {});
  ASSERT_FALSE(ba.empty());
  EXPECT_EQ(ba, bb);
  EXPECT_EQ(ba, bd);
  for (const auto& p : paths) fs::remove(p);
}

TEST(Gio, WriteLeavesNoTmpFile) {
  const std::string path = temp_path("hacc_gio_atomic.gio");
  comm::Machine::run(2, [&](comm::Comm& c) {
    auto p = rank_particles(c.rank(), 100, 16);
    write_particles(c, path, GlobalMeta{}, p);
  });
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove(path);
}

class GioElasticRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(ReadRanks, GioElasticRanks,
                         ::testing::Values(1, 2, 3, 8));

TEST_P(GioElasticRanks, CheckpointOn4RestoresBitIdentically) {
  const int read_ranks = GetParam();
  const std::string path = temp_path("hacc_gio_elastic.gio");
  const std::size_t box = 16;

  // Write on 4 ranks, each holding its domain's particles.
  std::map<Key, Fields> written;
  comm::Machine::run(4, [&](comm::Comm& c) {
    auto p = rank_particles(c.rank(), 200, box);
    write_particles(c, path, GlobalMeta{0.5, 64.0, box}, p);
    // Build the global reference on rank 0 via the fan-in helper.
    struct Row {
      std::uint64_t id;
      Fields f;
    };
    std::vector<Row> rows;
    for (const auto& [id, f] : fingerprint(p)) rows.push_back({id, f});
    auto all = c.gatherv(std::span<const Row>(rows), 0);
    if (c.rank() == 0)
      for (const auto& r : all) written[r.id] = r.f;
  });
  ASSERT_EQ(written.size(), 800u);

  // Read on a different rank count: across the reading ranks every
  // particle arrives exactly once, bit-identical. (Routing the particles to
  // their domain owners is the reader's job; core_test covers it.)
  std::map<Key, Fields> restored;
  std::set<Key> seen_twice;
  comm::Machine::run(read_ranks, [&](comm::Comm& c) {
    ParticleArray p;
    const auto report = read_particles(c, path, p);
    EXPECT_TRUE(report.corrupt.empty());
    EXPECT_EQ(report.total_particles, 800u);
    EXPECT_EQ(report.blocks, 4u);
    struct Row {
      std::uint64_t id;
      Fields f;
    };
    std::vector<Row> rows;
    for (const auto& [id, f] : fingerprint(p)) rows.push_back({id, f});
    auto all = c.gatherv(std::span<const Row>(rows), 0);
    if (c.rank() == 0) {
      for (const auto& r : all) {
        if (restored.count(r.id)) seen_twice.insert(r.id);
        restored[r.id] = r.f;
      }
    }
  });
  EXPECT_TRUE(seen_twice.empty());
  ASSERT_EQ(restored.size(), written.size());
  for (const auto& [id, f] : written) {
    ASSERT_TRUE(restored.count(id)) << "id " << id;
    EXPECT_EQ(restored.at(id), f) << "id " << id;
  }
  fs::remove(path);
}

TEST(Gio, CorruptVariableBlocksAreSkippedAndReported) {
  const std::string path = temp_path("hacc_gio_corrupt.gio");
  const std::size_t n = 120;
  comm::Machine::run(2, [&](comm::Comm& c) {
    auto p = rank_particles(c.rank(), n, 16);
    write_particles(c, path, GlobalMeta{}, p);
  });
  // One flipped byte in every variable of block 1 plus one in block 0's x.
  for (const char* var : {"x", "y", "z", "vx", "vy", "vz", "mass", "id",
                          "role"})
    flip_byte_in_variable(path, 1, var, 13);
  flip_byte_in_variable(path, 0, "x", 5);

  comm::Machine::run(2, [&](comm::Comm& c) {
    ParticleArray p;
    const auto report = read_particles(c, path, p);  // must not throw
    EXPECT_EQ(report.total_particles, 2 * n);
    // The combined report is identical on every rank: 10 damaged
    // sub-blocks, each detected by its CRC.
    ASSERT_EQ(report.corrupt.size(), 10u);
    std::set<std::pair<std::uint64_t, std::string>> damaged;
    for (const auto& r : report.corrupt) damaged.insert({r.block, r.var_name});
    EXPECT_TRUE(damaged.count({0, "x"}));
    EXPECT_TRUE(damaged.count({1, "vy"}));
    EXPECT_TRUE(damaged.count({1, "role"}));
    EXPECT_FALSE(damaged.count({0, "y"}));
    // Skip-and-report: the damaged sub-blocks arrive zero-filled, the
    // healthy ones intact.
    if (c.rank() == 0) {
      // Block 0: x zeroed, y untouched.
      bool all_zero = true;
      for (std::size_t i = 0; i < p.size(); ++i) all_zero &= p.x[i] == 0.0f;
      EXPECT_TRUE(all_zero);
      bool any_y = false;
      for (std::size_t i = 0; i < p.size(); ++i) any_y |= p.y[i] != 0.0f;
      EXPECT_TRUE(any_y);
    }
  });
  fs::remove(path);
}

TEST(Gio, RedundantHeaderRescuesClobberedPrimary) {
  const std::string path = temp_path("hacc_gio_hdr.gio");
  const std::size_t n = 150;
  comm::Machine::run(2, [&](comm::Comm& c) {
    auto p = rank_particles(c.rank(), n, 16);
    write_particles(c, path, GlobalMeta{0.25, 32.0, 16}, p);
  });
  std::map<Key, Fields> clean;
  comm::Machine::run(1, [&](comm::Comm& c) {
    ParticleArray p;
    read_particles(c, path, p);
    clean = fingerprint(p);
  });

  flip_byte_in_primary_header(path, 16);  // damage inside the primary blob
  std::uint64_t header_bytes = 0;
  {
    const BlockFile f(path);
    EXPECT_TRUE(f.used_redundant_header());
    EXPECT_EQ(f.total_rows(), 2 * n);
    EXPECT_DOUBLE_EQ(f.meta().scale_factor, 0.25);
    // One header blob: 72 + 32 V + (8 + 16 V) B + 8 bytes (DESIGN §4d).
    header_bytes = 72 + 32 * f.vars() + (8 + 16 * f.vars()) * f.blocks() + 8;
  }

  comm::Machine::run(2, [&](comm::Comm& c) {
    ParticleArray p;
    const auto report = read_particles(c, path, p);
    EXPECT_TRUE(report.used_redundant_header);
    EXPECT_TRUE(report.corrupt.empty());
    struct Row {
      std::uint64_t id;
      Fields f;
    };
    std::vector<Row> rows;
    for (const auto& [id, f] : fingerprint(p)) rows.push_back({id, f});
    auto all = c.gatherv(std::span<const Row>(rows), 0);
    if (c.rank() == 0) {
      EXPECT_EQ(all.size(), clean.size());
      for (const auto& r : all) EXPECT_EQ(clean.at(r.id), r.f);
    }
  });

  // Clobbering the magic itself must also fall through to the redundant
  // copy, and destroying both copies must finally throw.
  flip_byte_in_primary_header(path, 0);
  EXPECT_TRUE(BlockFile(path).used_redundant_header());
  {
    // Truncate away footer + redundant header.
    const auto keep = fs::file_size(path) - header_bytes - 16;
    fs::resize_file(path, keep);
  }
  EXPECT_THROW(BlockFile{path}, Error);
  fs::remove(path);
}

TEST(Gio, TruncatedDataBlockIsReportedNotFatal) {
  const std::string path = temp_path("hacc_gio_trunc.gio");
  comm::Machine::run(2, [&](comm::Comm& c) {
    auto p = rank_particles(c.rank(), 80, 16);
    write_particles(c, path, GlobalMeta{}, p);
  });
  // Chop the file short: the redundant header is gone but the primary is
  // fine; the tail blocks can't be read and must be reported as corrupt.
  fs::resize_file(path, fs::file_size(path) / 2);
  comm::Machine::run(1, [&](comm::Comm& c) {
    ParticleArray p;
    const auto report = read_particles(c, path, p);
    EXPECT_FALSE(report.used_redundant_header);
    EXPECT_GT(report.corrupt.size(), 0u);
    EXPECT_EQ(p.size(), 160u);  // zero-filled, never short
  });
  fs::remove(path);
}

TEST(Gio, EmptyRanksAndZeroTotalAreFine) {
  const std::string path = temp_path("hacc_gio_empty.gio");
  comm::Machine::run(3, [&](comm::Comm& c) {
    // Only rank 1 has particles.
    ParticleArray p;
    if (c.rank() == 1) p = rank_particles(1, 25, 16);
    write_particles(c, path, GlobalMeta{}, p);
    ParticleArray q;
    const auto report = read_particles(c, path, q);
    EXPECT_EQ(report.total_particles, 25u);
    EXPECT_TRUE(report.corrupt.empty());
  });
  comm::Machine::run(2, [&](comm::Comm& c) {
    ParticleArray none;
    write_particles(c, path, GlobalMeta{}, none);
    ParticleArray q;
    const auto report = read_particles(c, path, q);
    EXPECT_EQ(report.total_particles, 0u);
    EXPECT_TRUE(q.empty());
  });
  fs::remove(path);
}

TEST(GioVerify, CleanFilePassesFullScan) {
  const std::string path = temp_path("hacc_gio_verify_ok.gio");
  comm::Machine::run(4, [&](comm::Comm& c) {
    const ParticleArray p = rank_particles(c.rank(), 100, 32);
    GioConfig cfg;
    cfg.verify_after_write = true;  // write path verifies before publish
    const auto stats = write_particles(c, path, GlobalMeta{}, p, cfg);
    if (c.rank() == 0) {
      EXPECT_GT(stats.verify_seconds, 0.0);
    }
  });
  const VerifyReport vr = verify_file(path);
  EXPECT_TRUE(vr.ok);
  EXPECT_TRUE(vr.header_ok);
  EXPECT_FALSE(vr.used_redundant_header);
  EXPECT_EQ(vr.blocks, 4u);
  EXPECT_EQ(vr.total_particles, 400u);
  EXPECT_TRUE(vr.corrupt.empty());
  EXPECT_GT(vr.bytes_scanned, 0u);
  fs::remove(path);
}

TEST(GioVerify, FlippedByteIsLocatedByScan) {
  const std::string path = temp_path("hacc_gio_verify_bad.gio");
  comm::Machine::run(2, [&](comm::Comm& c) {
    write_particles(c, path, GlobalMeta{}, rank_particles(c.rank(), 50, 32));
  });
  flip_byte_in_variable(path, /*block=*/1, "vy", /*byte_in_block=*/13);
  const VerifyReport vr = verify_file(path);
  EXPECT_FALSE(vr.ok);
  EXPECT_TRUE(vr.header_ok);  // only a data sub-block is damaged
  ASSERT_EQ(vr.corrupt.size(), 1u);
  EXPECT_EQ(vr.corrupt[0].block, 1u);
  EXPECT_EQ(vr.corrupt[0].var_name, "vy");
  fs::remove(path);
}

TEST(GioVerify, EveryReaderFlagsTheSameSubBlock) {
  // Three writer blocks, the middle one empty, one variable of each type.
  // A flipped data byte or CRC-trailer byte must be pinned to the same
  // (block, var) by verify_file, by read() at 1 and 2 readers and by
  // BlockFile::read_verified, and read() must zero-fill exactly that
  // sub-block.
  const std::string path = temp_path("hacc_gio_every_reader.gio");
  const std::array<std::uint64_t, 3> rows{40, 0, 25};
  const std::array<std::string, 3> names{"x", "id", "role"};
  const std::array<VarType, 3> types{VarType::kFloat32, VarType::kUInt64,
                                     VarType::kUInt8};
  // written[b][v]: block b's bytes of variable v, never zero.
  std::array<std::array<std::vector<std::byte>, 3>, 3> written;
  for (std::size_t b = 0; b < 3; ++b)
    for (std::size_t v = 0; v < 3; ++v)
      for (std::size_t i = 0; i < rows[b] * var_type_size(types[v]); ++i)
        written[b][v].push_back(
            static_cast<std::byte>(1 + (31 * b + 7 * v + i) % 255));
  comm::Machine::run(3, [&](comm::Comm& c) {
    const auto b = static_cast<std::size_t>(c.rank());
    std::vector<WriteVar> wv;
    for (std::size_t v = 0; v < 3; ++v)
      wv.push_back({names[v], types[v], written[b][v].data()});
    write(c, path, GlobalMeta{}, rows[b], wv);
  });

  const auto expect_only = [&](std::size_t bad_b, std::size_t bad_v) {
    const VerifyReport vr = verify_file(path);
    EXPECT_TRUE(vr.header_ok);
    ASSERT_EQ(vr.corrupt.size(), 1u);
    EXPECT_EQ(vr.corrupt[0].block, bad_b);
    EXPECT_EQ(vr.corrupt[0].var, bad_v);
    EXPECT_EQ(vr.corrupt[0].var_name, names[bad_v]);

    const BlockFile f(path);
    std::vector<std::byte> buf;
    for (std::size_t b = 0; b < 3; ++b)
      for (std::size_t v = 0; v < 3; ++v)
        EXPECT_EQ(f.read_verified(b, v, buf), b != bad_b || v != bad_v)
            << "block " << b << " var " << names[v];

    for (const int readers : {1, 2}) {
      comm::Machine::run(readers, [&](comm::Comm& c) {
        std::array<std::vector<std::byte>, 3> out;
        std::vector<ReadVar> rv;
        for (std::size_t v = 0; v < 3; ++v)
          rv.push_back({names[v], types[v], &out[v]});
        const ReadReport rep = read(c, path, rv);
        ASSERT_EQ(rep.corrupt.size(), 1u) << readers << " readers";
        EXPECT_EQ(rep.corrupt[0].block, bad_b);
        EXPECT_EQ(rep.corrupt[0].var, bad_v);
        // This reader's blocks, the damaged sub-block zero-filled.
        const auto r = static_cast<std::size_t>(c.rank());
        const auto p = static_cast<std::size_t>(readers);
        for (std::size_t v = 0; v < 3; ++v) {
          std::vector<std::byte> want;
          for (std::size_t b = 3 * r / p; b < 3 * (r + 1) / p; ++b) {
            if (b == bad_b && v == bad_v)
              want.resize(want.size() + written[b][v].size(), std::byte{0});
            else
              want.insert(want.end(), written[b][v].begin(),
                          written[b][v].end());
          }
          EXPECT_EQ(out[v], want) << readers << " readers, rank " << r
                                  << ", var " << names[v];
        }
      });
    }
  };

  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t v = 0; v < 3; ++v) {
      const std::uint64_t n = written[b][v].size();
      std::vector<std::uint64_t> hits{n + 3};  // inside the CRC trailer
      if (n > 0) hits.push_back(0);            // the first data byte
      for (const std::uint64_t at : hits) {
        SCOPED_TRACE("block " + std::to_string(b) + " var " + names[v] +
                     " byte " + std::to_string(at));
        flip_byte_in_variable(path, b, names[v], at);
        expect_only(b, v);
        flip_byte_in_variable(path, b, names[v], at);  // XOR again: healed
      }
    }
  }
  EXPECT_TRUE(verify_file(path).ok);
  EXPECT_THROW(flip_byte_in_variable(path, 1, "x", 8), Error);  // past trailer
  fs::remove(path);
}

TEST(GioVerify, MissingAndHeaderlessFilesReportNotOk) {
  EXPECT_FALSE(verify_file(temp_path("hacc_gio_no_such_file.gio")).ok);
  const std::string path = temp_path("hacc_gio_verify_junk.gio");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a gio file at all";
  }
  const VerifyReport vr = verify_file(path);
  EXPECT_FALSE(vr.ok);
  EXPECT_FALSE(vr.header_ok);
  fs::remove(path);
}

}  // namespace
}  // namespace hacc::gio
