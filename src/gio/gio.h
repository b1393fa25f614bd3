// GenericIO-style parallel particle I/O (paper Sec. V; Habib et al. 2016).
//
// Production HACC writes its science output through the GenericIO library:
// a self-describing blocked format where every source rank contributes one
// block, each block stores its variables as contiguous sub-blocks, and every
// variable sub-block carries a CRC64 trailer so silent corruption anywhere
// in the petabyte stream is detected at read time. Writer *aggregation*
// funnels N ranks' blocks through M writer ranks (the MPI-IO collective
// aggregator pattern) so the file-system sees few, large, well-formed
// streams instead of N tiny ones.
//
// On-disk layout (all header fields fixed-width little-endian, written
// field by field — see gio/wire.h):
//
//   [header blob]                    primary copy, CRC64 trailer
//   [block 0 var 0][crc64]           data sub-block + 8-byte CRC trailer
//   [block 0 var 1][crc64]
//   ...
//   [block B-1 var V-1][crc64]
//   [header blob]                    redundant copy (identical bytes)
//   [footer: u64 redundant-header offset, u64 footer magic]
//
// The header blob is: fixed global header, V variable descriptors
// (24-byte zero-padded name, type, element size), B block descriptors
// (row count + per-variable absolute offset/byte-size), CRC64 of the blob.
// Block count B is the *writer-time* rank count; readers may run with any
// rank count and partition blocks contiguously among themselves
// (rank-count-elastic restart).
//
// Failure policy: a variable sub-block whose CRC fails is zero-filled and
// reported in ReadReport::corrupt instead of aborting the read; a corrupt
// primary header falls back to the redundant copy located via the footer.
// Only a file whose *both* header copies are unusable throws.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "comm/comm.h"

namespace hacc::gio {

/// Element types a variable sub-block may hold.
enum class VarType : std::uint32_t {
  kFloat32 = 0,
  kUInt64 = 1,
  kUInt8 = 2,
};

/// Bytes per element of a VarType.
std::size_t var_type_size(VarType t);

/// Simulation metadata carried in the global header.
struct GlobalMeta {
  double scale_factor = 0;
  double box_mpch = 0;
  std::uint64_t grid = 0;
};

struct GioConfig {
  /// Writer aggregation width M: source-rank blocks are funnelled through
  /// this many writer ranks. 0 = default (min(ranks, 4)); clamped to
  /// [1, ranks].
  int aggregators = 0;
  /// Write-then-verify: after all data is on disk but *before* the atomic
  /// rename publishes it, rank 0 re-reads the tmp file and re-checks the
  /// header and every sub-block CRC. A checkpoint that cannot be read back
  /// clean is worthless — better to fail the write (tmp file left behind
  /// for forensics, previous checkpoint still current) than to publish it.
  bool verify_after_write = false;
};

/// One variable to write: `data` points at local_count elements of `type`.
struct WriteVar {
  std::string name;  ///< at most 24 bytes, unique within the file
  VarType type = VarType::kFloat32;
  const void* data = nullptr;
};

struct WriteStats {
  std::uint64_t file_bytes = 0;     ///< total file size
  std::uint64_t payload_bytes = 0;  ///< global particle payload (no headers)
  int aggregators = 0;              ///< writer count actually used
  double seconds = 0;               ///< wall time incl. completion barriers
  double verify_seconds = 0;        ///< read-back verification (rank 0)
};

/// Rename the fsynced `tmp` onto `path`, then fsync `path`'s directory so
/// the rename survives a power loss. Throws hacc::Error if the rename fails.
void rename_durably(const std::string& tmp, const std::string& path);

/// Collective blocked write through M aggregator ranks. The file appears
/// atomically and durably: data goes to `<path>.tmp`, which rank 0 fsyncs
/// and rename_durably()s onto `path` after the completion barrier, so
/// neither a killed run nor a power loss leaves a truncated file that parses
/// as a current checkpoint. Throws hacc::Error on I/O failure (collective
/// error state is NOT synchronized; callers treat a throw as fatal).
WriteStats write(comm::Comm& comm, const std::string& path,
                 const GlobalMeta& meta, std::uint64_t local_count,
                 std::span<const WriteVar> vars, const GioConfig& cfg = {});

/// One variable to read: bytes for this rank's share of the rows are
/// appended to `*out` (cleared first), zero-filled where a sub-block's CRC
/// failed.
struct ReadVar {
  std::string name;
  VarType type = VarType::kFloat32;
  std::vector<std::byte>* out = nullptr;
};

/// A variable sub-block (or file region) that failed its CRC on read.
struct CorruptRegion {
  std::uint64_t block = 0;  ///< writer-time source rank
  std::uint32_t var = 0;    ///< index into the file's variable table
  std::string var_name;
};

struct ReadReport {
  GlobalMeta meta;
  std::uint64_t total_particles = 0;  ///< global rows in the file
  std::uint64_t local_particles = 0;  ///< rows delivered to this rank
  std::uint64_t blocks = 0;           ///< blocks in the file
  std::uint64_t blocks_read = 0;      ///< blocks assigned to this rank
  bool used_redundant_header = false;
  /// CRC failures, globally combined (identical on every rank).
  std::vector<CorruptRegion> corrupt;
  std::uint64_t payload_bytes = 0;  ///< global particle payload
  double seconds = 0;
};

/// Collective elastic read: the file's blocks are partitioned contiguously
/// over the reader ranks (any count). Every sub-block CRC is verified;
/// failures are zero-filled and reported, never thrown. Throws hacc::Error
/// only if both header copies are unusable or a requested variable is
/// missing/mistyped.
ReadReport read(comm::Comm& comm, const std::string& path,
                std::span<const ReadVar> vars);

/// Full-file integrity scan result (see verify_file).
struct VerifyReport {
  bool ok = false;  ///< header usable AND every sub-block CRC clean
  bool header_ok = false;
  bool used_redundant_header = false;
  std::uint64_t total_particles = 0;
  std::uint64_t blocks = 0;
  std::uint64_t bytes_scanned = 0;
  /// Sub-blocks whose CRC failed (empty when ok).
  std::vector<CorruptRegion> corrupt;
  double seconds = 0;
};

/// Serial full-file integrity scan: open the file as a BlockFile (a header
/// copy must validate) and read_verified() every variable sub-block, so a
/// file passes through the same sub-block check read() applies on every
/// restore. Never throws on corruption: a missing file or two dead header
/// copies report ok == header_ok == false. Used by the write-then-verify
/// path, by the Supervisor to pick the newest *good* checkpoint before
/// restoring, and by CatalogStore::verify_all.
VerifyReport verify_file(const std::string& path);

// ---- ranged / partial block reads ------------------------------------------

/// Serial random-access reader over one gio file: the header is parsed once
/// at open (redundant-copy fallback included), after which any (block,
/// variable) sub-block — or any byte range inside one — can be read without
/// touching the rest of the file. A read-optimized store needs exactly
/// that: a query touching one column of one writer block costs that
/// column's bytes. read_verified() checks a sub-block through the same
/// routine read() uses for each block of a rank's share.
///
/// Reads go through pread(2) on a single file descriptor, so a const
/// BlockFile is safe to share across threads with no locking — the query
/// server's thread pool reads concurrently through one open file.
class BlockFile {
 public:
  explicit BlockFile(const std::string& path);
  ~BlockFile();
  BlockFile(BlockFile&&) noexcept;
  BlockFile& operator=(BlockFile&&) noexcept;
  BlockFile(const BlockFile&) = delete;
  BlockFile& operator=(const BlockFile&) = delete;

  const std::string& path() const noexcept;
  const GlobalMeta& meta() const noexcept;
  bool used_redundant_header() const noexcept;
  std::uint64_t total_rows() const noexcept;
  std::size_t blocks() const noexcept;
  std::size_t vars() const noexcept;
  const std::vector<std::string>& var_names() const noexcept;
  VarType var_type(std::size_t var) const;
  /// Index of the named variable, or -1 when the file has no such variable.
  int var_index(std::string_view name) const noexcept;
  /// Rows in one writer-time block.
  std::uint64_t rows(std::size_t block) const;
  /// Data bytes of one (block, var) sub-block, excluding the CRC trailer.
  std::uint64_t sub_block_bytes(std::size_t block, std::size_t var) const;

  /// Ranged read: `out.size()` bytes of sub-block (block, var) starting at
  /// byte `offset` within the sub-block. No CRC check — the trailer covers
  /// the whole sub-block, so partial reads cannot verify it; callers that
  /// need integrity read the full sub-block via read_verified (the block
  /// cache does exactly that on a miss). Throws on I/O failure or a range
  /// beyond the sub-block.
  void read_at(std::size_t block, std::size_t var, std::uint64_t offset,
               std::span<std::byte> out) const;

  /// Full sub-block read + CRC64 trailer check into `out` (resized to the
  /// sub-block's data bytes). Returns false on CRC mismatch or short read
  /// (contents unspecified); never throws on corruption.
  bool read_verified(std::size_t block, std::size_t var,
                     std::vector<std::byte>& out) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---- fault injection (tests prove detection/recovery) ----------------------

/// XOR one byte of the given variable sub-block: `byte_in_block` below the
/// sub-block's data bytes n hits the data, n..n+7 its CRC64 trailer (so an
/// empty block's sub-block, which is only its trailer, can be damaged too).
void flip_byte_in_variable(const std::string& path, std::uint64_t block,
                           const std::string& var_name,
                           std::uint64_t byte_in_block = 0);

/// XOR one byte inside the primary header blob (the redundant copy must
/// rescue the read).
void flip_byte_in_primary_header(const std::string& path,
                                 std::uint64_t byte_offset = 16);

}  // namespace hacc::gio
