#include "gio/gio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "gio/crc64.h"
#include "gio/wire.h"
#include "util/error.h"
#include "util/timer.h"

namespace hacc::gio {

namespace {

// "HACCGIO1" / "GIOFOOT1" as little-endian u64s.
constexpr std::uint64_t kMagic = 0x314F494743434148ULL;
constexpr std::uint64_t kFooterMagic = 0x31544F4F464F4947ULL;
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kEndianSentinel = 0x01020304;
constexpr std::size_t kNameWidth = 24;
constexpr std::size_t kFixedHeaderBytes = 72;
constexpr std::size_t kFooterBytes = 16;
constexpr std::size_t kCrcBytes = 8;
constexpr int kDefaultAggregators = 4;

constexpr int kTagGioData = -501;
constexpr int kTagGioCrc = -502;

/// One open file descriptor, closed on destruction. Every gio file access
/// is a positioned read or write on one of these, so no call depends on a
/// shared file offset and one descriptor serves concurrent readers.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(Fd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  Fd& operator=(Fd&& o) noexcept {
    std::swap(fd_, o.fd_);
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const noexcept { return fd_; }

 private:
  int fd_ = -1;
};

Fd open_fd(const std::string& path, int flags) {
  Fd fd(::open(path.c_str(), flags | O_CLOEXEC, 0666));
  HACC_CHECK_MSG(fd.get() >= 0, "cannot open " + path);
  return fd;
}

std::uint64_t file_size(int fd) {
  struct stat st {};
  HACC_CHECK(::fstat(fd, &st) == 0);
  return static_cast<std::uint64_t>(st.st_size);
}

/// Read exactly `bytes` at `offset`; false on a short read or an error.
bool pread_all(int fd, void* data, std::size_t bytes, std::uint64_t offset) {
  auto* p = static_cast<std::byte*>(data);
  while (bytes > 0) {
    const ::ssize_t n = ::pread(fd, p, bytes, static_cast<::off_t>(offset));
    if (n <= 0) return false;
    p += n;
    bytes -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

void pwrite_all(int fd, const void* data, std::size_t bytes,
                std::uint64_t offset) {
  const auto* p = static_cast<const std::byte*>(data);
  while (bytes > 0) {
    const ::ssize_t n = ::pwrite(fd, p, bytes, static_cast<::off_t>(offset));
    HACC_CHECK_MSG(n > 0, "short write");
    p += n;
    bytes -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

/// In-memory form of the header blob: everything a reader or writer needs
/// to locate any sub-block.
struct Layout {
  GlobalMeta meta;
  std::uint64_t total = 0;
  std::vector<std::string> var_names;
  std::vector<VarType> var_types;
  std::vector<std::uint64_t> counts;   // rows per block
  std::vector<std::uint64_t> offsets;  // [block * nvars + var] absolute
  std::vector<std::uint64_t> bytes;    // data bytes, excl. CRC trailer
  std::uint64_t header_bytes = 0;      // size of one header blob
  std::uint64_t data_end = 0;          // == redundant header offset

  std::size_t nvars() const noexcept { return var_names.size(); }
  std::size_t nblocks() const noexcept { return counts.size(); }
  std::size_t sub(std::size_t b, std::size_t v) const noexcept {
    return b * nvars() + v;
  }
  std::uint64_t file_bytes() const noexcept {
    return data_end + header_bytes + kFooterBytes;
  }
};

std::uint64_t header_blob_bytes(std::size_t nvars, std::size_t nblocks) {
  return kFixedHeaderBytes + nvars * (kNameWidth + 8) +
         nblocks * (8 + nvars * 16) + kCrcBytes;
}

Layout build_layout(const GlobalMeta& meta,
                    std::span<const std::uint64_t> counts,
                    std::span<const WriteVar> vars) {
  Layout lay;
  lay.meta = meta;
  lay.counts.assign(counts.begin(), counts.end());
  for (const auto& v : vars) {
    lay.var_names.push_back(v.name);
    lay.var_types.push_back(v.type);
  }
  lay.header_bytes = header_blob_bytes(lay.nvars(), lay.nblocks());
  std::uint64_t off = lay.header_bytes;
  lay.offsets.resize(lay.nblocks() * lay.nvars());
  lay.bytes.resize(lay.nblocks() * lay.nvars());
  for (std::size_t b = 0; b < lay.nblocks(); ++b) {
    lay.total += lay.counts[b];
    for (std::size_t v = 0; v < lay.nvars(); ++v) {
      const std::uint64_t nb = lay.counts[b] * var_type_size(lay.var_types[v]);
      lay.offsets[lay.sub(b, v)] = off;
      lay.bytes[lay.sub(b, v)] = nb;
      off += nb + kCrcBytes;
    }
  }
  lay.data_end = off;
  return lay;
}

std::vector<std::byte> serialize_header(const Layout& lay) {
  std::vector<std::byte> blob;
  blob.reserve(lay.header_bytes);
  wire::put_u64(blob, kMagic);
  wire::put_u32(blob, kVersion);
  wire::put_u32(blob, kEndianSentinel);
  wire::put_u32(blob, static_cast<std::uint32_t>(lay.nvars()));
  wire::put_u32(blob, static_cast<std::uint32_t>(lay.nblocks()));
  wire::put_u64(blob, lay.total);
  wire::put_f64(blob, lay.meta.scale_factor);
  wire::put_f64(blob, lay.meta.box_mpch);
  wire::put_u64(blob, lay.meta.grid);
  wire::put_u64(blob, lay.header_bytes);
  wire::put_u64(blob, lay.data_end);
  for (std::size_t v = 0; v < lay.nvars(); ++v) {
    wire::put_bytes_padded(blob, lay.var_names[v].data(),
                           lay.var_names[v].size(), kNameWidth);
    wire::put_u32(blob, static_cast<std::uint32_t>(lay.var_types[v]));
    wire::put_u32(blob,
                  static_cast<std::uint32_t>(var_type_size(lay.var_types[v])));
  }
  for (std::size_t b = 0; b < lay.nblocks(); ++b) {
    wire::put_u64(blob, lay.counts[b]);
    for (std::size_t v = 0; v < lay.nvars(); ++v) {
      wire::put_u64(blob, lay.offsets[lay.sub(b, v)]);
      wire::put_u64(blob, lay.bytes[lay.sub(b, v)]);
    }
  }
  wire::put_u64(blob, crc64(blob.data(), blob.size()));
  HACC_CHECK(blob.size() == lay.header_bytes);
  return blob;
}

Layout parse_header(std::span<const std::byte> blob) {
  HACC_CHECK_MSG(blob.size() >= kFixedHeaderBytes + kCrcBytes,
                 "gio header too small");
  wire::Cursor c(blob);
  Layout lay;
  HACC_CHECK_MSG(c.u64() == kMagic, "bad gio magic");
  HACC_CHECK_MSG(c.u32() == kVersion, "unsupported gio version");
  HACC_CHECK_MSG(c.u32() == kEndianSentinel, "gio endianness mismatch");
  const std::uint32_t nvars = c.u32();
  const std::uint32_t nblocks = c.u32();
  lay.total = c.u64();
  lay.meta.scale_factor = c.f64();
  lay.meta.box_mpch = c.f64();
  lay.meta.grid = c.u64();
  lay.header_bytes = c.u64();
  lay.data_end = c.u64();
  HACC_CHECK_MSG(lay.header_bytes == header_blob_bytes(nvars, nblocks) &&
                     blob.size() == lay.header_bytes,
                 "gio header size mismatch");
  for (std::uint32_t v = 0; v < nvars; ++v) {
    char name[kNameWidth + 1] = {};
    c.bytes(name, kNameWidth);
    lay.var_names.emplace_back(name);
    const std::uint32_t type = c.u32();
    HACC_CHECK_MSG(type <= static_cast<std::uint32_t>(VarType::kUInt8),
                   "unknown gio variable type");
    lay.var_types.push_back(static_cast<VarType>(type));
    HACC_CHECK_MSG(c.u32() == var_type_size(lay.var_types.back()),
                   "gio element size mismatch");
  }
  lay.counts.resize(nblocks);
  lay.offsets.resize(static_cast<std::size_t>(nblocks) * nvars);
  lay.bytes.resize(static_cast<std::size_t>(nblocks) * nvars);
  std::uint64_t total = 0;
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    lay.counts[b] = c.u64();
    total += lay.counts[b];
    for (std::uint32_t v = 0; v < nvars; ++v) {
      lay.offsets[lay.sub(b, v)] = c.u64();
      lay.bytes[lay.sub(b, v)] = c.u64();
    }
  }
  HACC_CHECK_MSG(total == lay.total, "gio block counts disagree with total");
  return lay;
}

/// Try to load and CRC-validate a header blob at `offset`. Returns false on
/// any inconsistency (never throws): corruption here must route the caller
/// to the redundant copy, not abort.
bool try_load_header(int fd, std::uint64_t offset, std::uint64_t fsize,
                     std::vector<std::byte>& blob) {
  if (offset + kFixedHeaderBytes + kCrcBytes > fsize) return false;
  std::vector<std::byte> fixed(kFixedHeaderBytes);
  if (!pread_all(fd, fixed.data(), fixed.size(), offset)) return false;
  wire::Cursor c(fixed);
  if (c.u64() != kMagic) return false;
  if (c.u32() != kVersion) return false;
  if (c.u32() != kEndianSentinel) return false;
  c.skip(4 + 4 + 8 + 8 + 8 + 8);  // nvars nblocks total sf box grid
  const std::uint64_t header_bytes = c.u64();
  if (header_bytes < kFixedHeaderBytes + kCrcBytes ||
      offset + header_bytes > fsize)
    return false;
  blob.resize(header_bytes);
  std::copy(fixed.begin(), fixed.end(), blob.begin());
  if (!pread_all(fd, blob.data() + kFixedHeaderBytes,
                 header_bytes - kFixedHeaderBytes, offset + kFixedHeaderBytes))
    return false;
  wire::Cursor tail(std::span<const std::byte>(blob).subspan(header_bytes -
                                                             kCrcBytes));
  return tail.u64() == crc64(blob.data(), header_bytes - kCrcBytes);
}

/// Load the primary header, falling back to the redundant copy via the
/// footer. Throws only when both copies are unusable.
std::vector<std::byte> load_header(int fd, bool& used_redundant) {
  const std::uint64_t fsize = file_size(fd);
  std::vector<std::byte> blob;
  if (try_load_header(fd, 0, fsize, blob)) {
    used_redundant = false;
    return blob;
  }
  // Primary is corrupt: locate the redundant copy through the footer.
  if (fsize >= kFooterBytes) {
    std::vector<std::byte> footer(kFooterBytes);
    if (pread_all(fd, footer.data(), footer.size(), fsize - kFooterBytes)) {
      wire::Cursor c(footer);
      const std::uint64_t redundant_offset = c.u64();
      if (c.u64() == kFooterMagic &&
          try_load_header(fd, redundant_offset, fsize, blob)) {
        used_redundant = true;
        return blob;
      }
    }
  }
  throw Error("gio: both header copies are corrupt or missing");
}

/// Read sub-block (block, var) into `out`, sized to its data bytes, and
/// check it against its 8-byte CRC64 trailer. False on a short read or a
/// CRC mismatch; never throws on either. The one place gio checks a
/// trailer: read(), BlockFile::read_verified() and, through the latter,
/// verify_file() all come here.
bool read_sub_block(int fd, const Layout& lay, std::size_t block,
                    std::size_t var, std::span<std::byte> out) {
  const std::size_t s = lay.sub(block, var);
  HACC_ASSERT(out.size() == lay.bytes[s]);
  std::byte trailer[kCrcBytes];
  if (!pread_all(fd, out.data(), out.size(), lay.offsets[s]) ||
      !pread_all(fd, trailer, kCrcBytes, lay.offsets[s] + out.size()))
    return false;
  wire::Cursor c(std::span<const std::byte>(trailer, kCrcBytes));
  return c.u64() == crc64(out.data(), out.size());
}

/// Wire form of a CRC failure, for the global fan-in of reports.
struct PackedCorrupt {
  std::uint64_t block;
  std::uint32_t var;
  std::uint32_t pad = 0;
};

/// Aggregator group of source rank r with M writers over P ranks.
int group_of(int r, int m, int p) {
  return static_cast<int>(static_cast<long long>(r) * m / p);
}
/// First (writer) rank of aggregator group g.
int writer_of(int g, int m, int p) {
  return static_cast<int>((static_cast<long long>(g) * p + m - 1) / m);
}

}  // namespace

std::size_t var_type_size(VarType t) {
  switch (t) {
    case VarType::kFloat32:
      return 4;
    case VarType::kUInt64:
      return 8;
    case VarType::kUInt8:
      return 1;
  }
  throw Error("unknown VarType");
}

WriteStats write(comm::Comm& comm, const std::string& path,
                 const GlobalMeta& meta, std::uint64_t local_count,
                 std::span<const WriteVar> vars, const GioConfig& cfg) {
  // Bulk data is written raw; the format defines those bytes as
  // little-endian IEEE.
  static_assert(std::endian::native == std::endian::little,
                "gio bulk writes assume a little-endian host");
  HACC_CHECK_MSG(!vars.empty(), "gio write needs at least one variable");
  for (std::size_t v = 0; v < vars.size(); ++v) {
    HACC_CHECK_MSG(vars[v].name.size() <= kNameWidth, "gio name too long");
    for (std::size_t w = v + 1; w < vars.size(); ++w)
      HACC_CHECK_MSG(vars[v].name != vars[w].name, "duplicate gio variable");
  }

  const int p = comm.size();
  const int rank = comm.rank();
  Timer timer;

  // Every rank derives the full layout from the allgathered block counts,
  // so offsets never need a second round of communication.
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(p));
  comm.allgather(std::span<const std::uint64_t>(&local_count, 1),
                 std::span<std::uint64_t>(counts));
  const Layout lay = build_layout(meta, counts, vars);

  int m = cfg.aggregators;
  if (m <= 0) m = std::min(p, kDefaultAggregators);
  m = std::clamp(m, 1, p);
  const int my_group = group_of(rank, m, p);
  const int my_writer = writer_of(my_group, m, p);

  // Each source rank checksums its own sub-blocks (end-to-end: the CRC is
  // computed before the data crosses the fan-in).
  std::vector<std::uint64_t> crcs(vars.size());
  for (std::size_t v = 0; v < vars.size(); ++v)
    crcs[v] = crc64(vars[v].data, local_count * var_type_size(vars[v].type));

  const std::string tmp = path + ".tmp";
  if (rank == 0) {
    const auto blob = serialize_header(lay);
    const Fd f = open_fd(tmp, O_WRONLY | O_CREAT | O_TRUNC);
    pwrite_all(f.get(), blob.data(), blob.size(), 0);
  }
  comm.barrier();  // the tmp file exists before any writer opens it

  if (rank != my_writer) {
    // Funnel every sub-block (and its CRC) to the aggregator. Per-source
    // FIFO ordering keeps data and CRC paired on the receive side.
    for (std::size_t v = 0; v < vars.size(); ++v) {
      const auto* bytes = static_cast<const std::byte*>(vars[v].data);
      comm.send_bytes(my_writer, kTagGioData,
                      std::span<const std::byte>(
                          bytes, local_count * var_type_size(vars[v].type)));
      comm.send_value(my_writer, kTagGioCrc, crcs[v]);
    }
  } else {
    const Fd f = open_fd(tmp, O_WRONLY);
    for (int src = 0; src < p; ++src) {
      if (group_of(src, m, p) != my_group) continue;
      for (std::size_t v = 0; v < vars.size(); ++v) {
        const auto b = static_cast<std::size_t>(src);
        const std::uint64_t nbytes = lay.bytes[lay.sub(b, v)];
        std::vector<std::byte> incoming;
        const std::byte* data;
        std::uint64_t crc;
        if (src == rank) {
          data = static_cast<const std::byte*>(vars[v].data);
          crc = crcs[v];
        } else {
          incoming = comm.recv_bytes(src, kTagGioData);
          HACC_CHECK_MSG(incoming.size() == nbytes, "gio fan-in size mismatch");
          crc = comm.recv_value<std::uint64_t>(src, kTagGioCrc);
          data = incoming.data();
        }
        const std::uint64_t offset = lay.offsets[lay.sub(b, v)];
        pwrite_all(f.get(), data, nbytes, offset);
        std::vector<std::byte> trailer;
        wire::put_u64(trailer, crc);
        pwrite_all(f.get(), trailer.data(), trailer.size(), offset + nbytes);
      }
    }
  }
  comm.barrier();  // all data blocks are on disk

  double verify_seconds = 0;
  if (rank == 0) {
    // Redundant header + footer, then the atomic publish: the rename only
    // happens once every rank's data is complete, so a crash mid-write
    // leaves `<path>.tmp`, never a truncated `path`.
    {
      std::vector<std::byte> tail = serialize_header(lay);
      wire::put_u64(tail, lay.data_end);  // footer
      wire::put_u64(tail, kFooterMagic);
      const Fd f = open_fd(tmp, O_WRONLY);
      pwrite_all(f.get(), tail.data(), tail.size(), lay.data_end);
    }
    if (cfg.verify_after_write) {
      // Read the tmp file back, every sub-block through the routine every
      // restore uses, before publishing it. On failure the tmp file stays
      // behind for forensics and `path` still names the previous good file.
      const VerifyReport vr = verify_file(tmp);
      verify_seconds = vr.seconds;
      if (!vr.ok) {
        std::string what = "gio: write verification failed for " + tmp;
        if (!vr.header_ok) {
          what += " (header unreadable)";
        } else {
          for (const auto& c : vr.corrupt)
            what += " (block " + std::to_string(c.block) + " var '" +
                    c.var_name + "' CRC mismatch)";
        }
        throw Error(what);
      }
    }
    HACC_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                   "cannot rename " + tmp + " to " + path);
  }
  comm.barrier();  // the published file is visible to every rank

  WriteStats stats;
  stats.file_bytes = lay.file_bytes();
  for (std::size_t b = 0; b < lay.nblocks(); ++b)
    for (std::size_t v = 0; v < lay.nvars(); ++v)
      stats.payload_bytes += lay.bytes[lay.sub(b, v)];
  stats.aggregators = m;
  stats.seconds = timer.elapsed();
  stats.verify_seconds = verify_seconds;
  return stats;
}

ReadReport read(comm::Comm& comm, const std::string& path,
                std::span<const ReadVar> vars) {
  static_assert(std::endian::native == std::endian::little,
                "gio bulk reads assume a little-endian host");
  const int p = comm.size();
  const int rank = comm.rank();
  Timer timer;

  // Rank 0 validates a header copy and broadcasts the blob; every rank
  // parses the same bytes. Rank 0's descriptor then serves its own blocks.
  Fd fd;
  std::vector<std::byte> blob;
  std::uint64_t used_redundant = 0;
  if (rank == 0) {
    fd = open_fd(path, O_RDONLY);
    bool redundant = false;
    blob = load_header(fd.get(), redundant);
    used_redundant = redundant ? 1 : 0;
  }
  std::uint64_t blob_size = blob.size();
  blob_size = comm.bcast_value(blob_size, 0);
  used_redundant = comm.bcast_value(used_redundant, 0);
  blob.resize(blob_size);
  comm.bcast(std::span<std::byte>(blob), 0);
  const Layout lay = parse_header(blob);

  // Resolve requested variables against the file's table.
  std::vector<std::size_t> file_var(vars.size());
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const auto it = std::find(lay.var_names.begin(), lay.var_names.end(),
                              vars[v].name);
    HACC_CHECK_MSG(it != lay.var_names.end(),
                   "gio file has no variable '" + vars[v].name + "'");
    file_var[v] =
        static_cast<std::size_t>(std::distance(lay.var_names.begin(), it));
    HACC_CHECK_MSG(lay.var_types[file_var[v]] == vars[v].type,
                   "gio variable '" + vars[v].name + "' type mismatch");
    HACC_CHECK(vars[v].out != nullptr);
    vars[v].out->clear();
  }

  // Contiguous block partition: reader r takes [r*B/P, (r+1)*B/P).
  const std::uint64_t nb = lay.nblocks();
  const auto b_lo = nb * static_cast<std::uint64_t>(rank) /
                    static_cast<std::uint64_t>(p);
  const auto b_hi = nb * (static_cast<std::uint64_t>(rank) + 1) /
                    static_cast<std::uint64_t>(p);

  ReadReport report;
  report.meta = lay.meta;
  report.total_particles = lay.total;
  report.blocks = nb;
  report.blocks_read = b_hi - b_lo;
  report.used_redundant_header = used_redundant != 0;
  for (std::size_t b = 0; b < lay.nblocks(); ++b)
    for (std::size_t v = 0; v < lay.nvars(); ++v)
      report.payload_bytes += lay.bytes[lay.sub(b, v)];

  std::vector<PackedCorrupt> local_corrupt;
  if (b_lo < b_hi) {
    if (rank != 0) fd = open_fd(path, O_RDONLY);
    for (std::uint64_t b = b_lo; b < b_hi; ++b) {
      report.local_particles += lay.counts[b];
      for (std::size_t v = 0; v < vars.size(); ++v) {
        const std::size_t fv = file_var[v];
        auto& out = *vars[v].out;
        const std::size_t at = out.size();
        out.resize(at + lay.bytes[lay.sub(b, fv)]);
        const std::span<std::byte> sub = std::span(out).subspan(at);
        if (!read_sub_block(fd.get(), lay, b, fv, sub)) {
          // Skip-and-report: zero-fill the damaged sub-block and carry on.
          std::fill(sub.begin(), sub.end(), std::byte{0});
          local_corrupt.push_back(
              PackedCorrupt{b, static_cast<std::uint32_t>(fv)});
        }
      }
    }
  }

  // Fan the per-rank CRC failures in to rank 0, then broadcast the combined
  // list so the report is identical everywhere.
  auto all = comm.gatherv(std::span<const PackedCorrupt>(local_corrupt), 0);
  std::uint64_t n_corrupt = all.size();
  n_corrupt = comm.bcast_value(n_corrupt, 0);
  all.resize(n_corrupt);
  comm.bcast(std::span<PackedCorrupt>(all), 0);
  for (const auto& c : all) {
    CorruptRegion r;
    r.block = c.block;
    r.var = c.var;
    r.var_name = lay.var_names[c.var];
    report.corrupt.push_back(std::move(r));
  }
  report.seconds = timer.elapsed();
  return report;
}

VerifyReport verify_file(const std::string& path) {
  Timer timer;
  VerifyReport report;
  std::optional<BlockFile> file;
  try {
    file.emplace(path);
  } catch (const Error&) {
    report.seconds = timer.elapsed();
    return report;  // missing file or both header copies unusable
  }
  report.header_ok = true;
  report.used_redundant_header = file->used_redundant_header();
  report.total_particles = file->total_rows();
  report.blocks = file->blocks();
  std::vector<std::byte> buf;
  for (std::size_t b = 0; b < file->blocks(); ++b) {
    for (std::size_t v = 0; v < file->vars(); ++v) {
      if (!file->read_verified(b, v, buf))
        report.corrupt.push_back(CorruptRegion{
            b, static_cast<std::uint32_t>(v), file->var_names()[v]});
      report.bytes_scanned += file->sub_block_bytes(b, v);
    }
  }
  report.ok = report.corrupt.empty();
  report.seconds = timer.elapsed();
  return report;
}

// ---- BlockFile -------------------------------------------------------------

struct BlockFile::Impl {
  std::string path;
  Fd fd;
  Layout lay;
  bool used_redundant = false;
};

BlockFile::BlockFile(const std::string& path) : impl_(new Impl) {
  impl_->path = path;
  impl_->fd = open_fd(path, O_RDONLY);
  impl_->lay =
      parse_header(load_header(impl_->fd.get(), impl_->used_redundant));
}

BlockFile::~BlockFile() = default;
BlockFile::BlockFile(BlockFile&&) noexcept = default;
BlockFile& BlockFile::operator=(BlockFile&&) noexcept = default;

const std::string& BlockFile::path() const noexcept { return impl_->path; }
const GlobalMeta& BlockFile::meta() const noexcept { return impl_->lay.meta; }
bool BlockFile::used_redundant_header() const noexcept {
  return impl_->used_redundant;
}
std::uint64_t BlockFile::total_rows() const noexcept {
  return impl_->lay.total;
}
std::size_t BlockFile::blocks() const noexcept {
  return impl_->lay.nblocks();
}
std::size_t BlockFile::vars() const noexcept { return impl_->lay.nvars(); }
const std::vector<std::string>& BlockFile::var_names() const noexcept {
  return impl_->lay.var_names;
}

VarType BlockFile::var_type(std::size_t var) const {
  HACC_CHECK(var < vars());
  return impl_->lay.var_types[var];
}

int BlockFile::var_index(std::string_view name) const noexcept {
  const auto& names = impl_->lay.var_names;
  for (std::size_t v = 0; v < names.size(); ++v)
    if (names[v] == name) return static_cast<int>(v);
  return -1;
}

std::uint64_t BlockFile::rows(std::size_t block) const {
  HACC_CHECK(block < blocks());
  return impl_->lay.counts[block];
}

std::uint64_t BlockFile::sub_block_bytes(std::size_t block,
                                         std::size_t var) const {
  HACC_CHECK(block < blocks() && var < vars());
  return impl_->lay.bytes[impl_->lay.sub(block, var)];
}

void BlockFile::read_at(std::size_t block, std::size_t var,
                        std::uint64_t offset, std::span<std::byte> out) const {
  const Layout& lay = impl_->lay;
  HACC_CHECK(block < blocks() && var < vars());
  const std::size_t s = lay.sub(block, var);
  HACC_CHECK_MSG(offset + out.size() <= lay.bytes[s],
                 "gio: ranged read beyond sub-block");
  HACC_CHECK_MSG(pread_all(impl_->fd.get(), out.data(), out.size(),
                           lay.offsets[s] + offset),
                 "gio: pread failed on " + impl_->path);
}

bool BlockFile::read_verified(std::size_t block, std::size_t var,
                              std::vector<std::byte>& out) const {
  out.resize(sub_block_bytes(block, var));
  return read_sub_block(impl_->fd.get(), impl_->lay, block, var, out);
}

namespace {
void flip_byte_at(const std::string& path, std::uint64_t offset) {
  const Fd f = open_fd(path, O_RDWR);
  HACC_CHECK_MSG(offset < file_size(f.get()), "fault offset beyond file end");
  unsigned char c = 0;
  HACC_CHECK(pread_all(f.get(), &c, 1, offset));
  c ^= 0x5a;
  pwrite_all(f.get(), &c, 1, offset);
}
}  // namespace

void flip_byte_in_variable(const std::string& path, std::uint64_t block,
                           const std::string& var_name,
                           std::uint64_t byte_in_block) {
  bool redundant = false;
  const Layout lay =
      parse_header(load_header(open_fd(path, O_RDONLY).get(), redundant));
  const auto it =
      std::find(lay.var_names.begin(), lay.var_names.end(), var_name);
  HACC_CHECK_MSG(it != lay.var_names.end(), "no such gio variable");
  const auto v =
      static_cast<std::size_t>(std::distance(lay.var_names.begin(), it));
  HACC_CHECK_MSG(block < lay.nblocks(), "no such gio block");
  const std::size_t s = lay.sub(block, v);
  HACC_CHECK_MSG(byte_in_block < lay.bytes[s] + kCrcBytes,
                 "fault beyond sub-block and its CRC trailer");
  flip_byte_at(path, lay.offsets[s] + byte_in_block);
}

void flip_byte_in_primary_header(const std::string& path,
                                 std::uint64_t byte_offset) {
  flip_byte_at(path, byte_offset);
}

}  // namespace hacc::gio
