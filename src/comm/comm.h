// Communicator: the MPI-subset interface HACC's algorithms need.
//
// Point-to-point sends are buffered (enqueue into the destination mailbox and
// return), receives block. Collectives are implemented *on top of*
// point-to-point with the standard distributed algorithms — dissemination
// barrier, binomial-tree broadcast/reduce, ring allgather — so the
// communication structure exercised by the pencil FFT and the overload
// refresh matches what an MPI build would do on a real machine. Every
// variable-size exchange, dense (alltoallv_into) or over a neighbor list
// (neighbor_alltoallv), is one routine: one payload message per peer, each
// block's element count read from its message length — no count round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "comm/message.h"
#include "comm/telemetry.h"
#include "util/error.h"

namespace hacc::comm {

class MachineState;
class FaultPlan;

/// Reduction operators supported by reduce/allreduce.
enum class ReduceOp { kSum, kMin, kMax };

/// Thrown out of a blocking receive whose deadline expired. The what()
/// string is the full who-waits-on-whom stuck-rank report (every rank's
/// pending peer, tag, op class, and wall seconds), so a distributed hang
/// turns into a diagnosis instead of a frozen job.
class DeadlockError : public Error {
 public:
  explicit DeadlockError(const std::string& report) : Error(report) {}
};

/// Runtime knobs of one simulated machine (Machine::run).
struct MachineOptions {
  /// Deadline for every blocking receive (collectives included), in
  /// seconds. On expiry the waiting rank throws DeadlockError carrying the
  /// stuck-rank report instead of hanging forever. 0 = wait forever.
  double recv_timeout_s = 0;
  /// Compute an end-to-end FNV-1a checksum per message at the send site and
  /// verify it at the receive site; a mismatch (e.g. an injected bit-flip
  /// in transit) throws and aborts the machine with a diagnosis.
  bool verify_payloads = false;
  /// Deterministic fault schedule to install on every rank (see fault.h).
  FaultPlan* fault_plan = nullptr;
};

/// A group of ranks with an isolated message context (like MPI_Comm).
///
/// Comm objects are per-thread handles; they are cheap to copy. All
/// collectives must be entered by every rank of the communicator.
class Comm {
 public:
  /// Creates an invalid handle (valid() == false); assign a real
  /// communicator to it later (e.g. from split()).
  Comm() = default;

  /// Rank of the calling thread within this communicator.
  int rank() const noexcept { return rank_; }
  /// Number of ranks in this communicator.
  int size() const noexcept { return static_cast<int>(group_->size()); }

  // ---- Point-to-point -----------------------------------------------------

  /// Buffered send of raw bytes to `dest` (rank in this communicator).
  void send_bytes(int dest, int tag, std::span<const std::byte> bytes) const;

  /// Buffered send that *moves* the payload into the destination mailbox —
  /// no intermediate copy when the caller already owns the buffer.
  void send_bytes(int dest, int tag, std::vector<std::byte>&& bytes) const;

  /// Blocking receive from `source`; returns the payload.
  std::vector<std::byte> recv_bytes(int source, int tag) const;

  /// Typed send of a contiguous trivially-copyable range.
  template <typename T>
  void send(int dest, int tag, std::span<const T> data) const {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, std::as_bytes(data));
  }
  template <typename T>
  void send_value(int dest, int tag, const T& value) const {
    send(dest, tag, std::span<const T>(&value, 1));
  }

  /// Typed receive into a caller buffer; message size must match exactly.
  template <typename T>
  void recv(int source, int tag, std::span<T> out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    auto bytes = recv_bytes(source, tag);
    HACC_CHECK_MSG(bytes.size() == out.size_bytes(),
                   "recv size mismatch (tag " + std::to_string(tag) + ")");
    std::memcpy(out.data(), bytes.data(), bytes.size());
  }
  template <typename T>
  T recv_value(int source, int tag) const {
    T v{};
    recv(source, tag, std::span<T>(&v, 1));
    return v;
  }
  /// Typed receive of unknown length.
  template <typename T>
  std::vector<T> recv_vector(int source, int tag) const {
    static_assert(std::is_trivially_copyable_v<T>);
    auto bytes = recv_bytes(source, tag);
    HACC_CHECK(bytes.size() % sizeof(T) == 0);
    std::vector<T> out(bytes.size() / sizeof(T));
    std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  // ---- Collectives --------------------------------------------------------

  /// Dissemination barrier: O(log P) rounds.
  void barrier() const;

  /// Binomial-tree broadcast from `root`, in place.
  template <typename T>
  void bcast(std::span<T> data, int root) const {
    bcast_bytes(std::as_writable_bytes(data), root);
  }
  template <typename T>
  T bcast_value(T value, int root) const {
    bcast(std::span<T>(&value, 1), root);
    return value;
  }

  /// Binomial-tree reduction to `root`; element-wise over the span.
  template <typename T>
  void reduce(std::span<T> data, ReduceOp op, int root) const;

  /// Reduce + broadcast. Element-wise over the span, result on all ranks.
  template <typename T>
  void allreduce(std::span<T> data, ReduceOp op) const {
    reduce(data, op, 0);
    bcast(data, 0);
  }
  template <typename T>
  T allreduce_value(T value, ReduceOp op) const {
    allreduce(std::span<T>(&value, 1), op);
    return value;
  }

  /// Ring allgather of equal-size contributions.
  template <typename T>
  void allgather(std::span<const T> send, std::span<T> recv) const;

  /// Variable-size gather (fan-in) to `root`: returns the concatenation of
  /// every rank's contribution in rank order on root, empty elsewhere. When
  /// `counts` is non-null it receives the per-rank element counts on root.
  /// Used by the I/O aggregation layer.
  template <typename T>
  std::vector<T> gatherv(std::span<const T> send_buf, int root,
                         std::vector<std::size_t>* counts = nullptr) const;

  /// Variable-size all-to-all exchange into caller-owned storage (like
  /// MPI_Alltoallv): `send_counts[r]` elements go to rank r, taken
  /// consecutively from `send`. Fills `recv_buf` with the concatenated
  /// contributions from ranks 0..P-1 and `recv_counts` with their sizes.
  /// `recv_buf` grows only when a block lands past its end and is never
  /// shrunk below its capacity, so reusing it across calls makes the
  /// exchange allocation-free on the caller side once its capacity has
  /// grown to steady state. `send` must not alias `recv_buf`. One payload
  /// message per other rank, empty or not, and no count round; the
  /// self-addressed block is copied directly, bypassing the mailbox.
  template <typename T>
  void alltoallv_into(std::span<const T> send,
                      std::span<const std::size_t> send_counts,
                      std::vector<T>& recv_buf,
                      std::vector<std::size_t>& recv_counts) const;

  /// The same exchange over a fixed neighbor list (like
  /// MPI_Neighbor_alltoallv): `neighbors` holds the distinct peer ranks
  /// (this rank itself may appear; its block is memcpy'd directly), and
  /// `send_counts[s]` elements go to `neighbors[s]`. `recv_buf` receives
  /// the blocks from the same neighbors in list order. The neighbor lists
  /// must be symmetric across ranks (r lists q iff q lists r) — e.g. a
  /// distance-based stencil — so the cost scales with the neighbor count,
  /// not the world size.
  template <typename T>
  void neighbor_alltoallv(std::span<const int> neighbors,
                          std::span<const T> send,
                          std::span<const std::size_t> send_counts,
                          std::vector<T>& recv_buf,
                          std::vector<std::size_t>& recv_counts) const;

  /// Split into sub-communicators by color (ranks with the same color end up
  /// in the same new communicator, ordered by key then by old rank).
  /// color < 0 means "not in any group": returns an invalid Comm.
  Comm split(int color, int key) const;

  /// True if this handle refers to a communicator this thread is part of.
  bool valid() const noexcept { return machine_ != nullptr; }

 private:
  friend class Machine;

  Comm(MachineState* machine, std::uint64_t context, int rank,
       std::vector<int> group)
      : machine_(machine),
        context_(context),
        rank_(rank),
        group_(std::make_shared<std::vector<int>>(std::move(group))) {}

  void bcast_bytes(std::span<std::byte> data, int root) const;
  /// The one variable-size exchange behind alltoallv_into and
  /// neighbor_alltoallv, over `npeers` peers, peer s being `peer_of(s)`.
  /// Sends each non-self peer its block in peer order (one message per
  /// peer, empty or not), then receives one block from each peer in order;
  /// a block's element count is its message length.
  template <typename T, typename PeerOf>
  void exchange_v(std::size_t npeers, PeerOf peer_of, int tag,
                  std::span<const T> send,
                  std::span<const std::size_t> send_counts,
                  std::vector<T>& recv_buf,
                  std::vector<std::size_t>& recv_counts) const;
  /// Common send path: checksum (when verify_payloads), telemetry, fault
  /// hooks (drop/corrupt), then mailbox delivery.
  void deliver_bytes(int dest, int tag, std::vector<std::byte>&& payload) const;
  Mailbox& mailbox_of(int rank_in_comm) const;
  const std::vector<int>& group() const { return *group_; }

  MachineState* machine_ = nullptr;
  std::uint64_t context_ = 0;
  int rank_ = 0;
  std::shared_ptr<std::vector<int>> group_;  // comm rank -> machine rank
};

/// Post-mortem of one Machine::run: which ranks originated failures (as
/// opposed to being collaterally aborted by a peer's death) and what kind.
/// A recovery driver uses this to choose a relaunch width: an elastic
/// policy shrinking "by failed ranks" needs to know how many ranks actually
/// died, not how many receives they took down with them.
struct MachineReport {
  /// Ranks whose own exception was a root cause (rank order). Ranks that
  /// merely observed a peer's death (Aborted) are not listed.
  std::vector<int> failed_ranks;
  /// At least one root cause was a receive-deadline expiry (DeadlockError) —
  /// a hang diagnosis rather than a rank death.
  bool deadlock = false;
  std::string first_error;  ///< what() of the primary failure ("" = none)
};

/// Runs an SPMD function over N ranks, each on its own thread.
class Machine {
 public:
  /// Spawn `nranks` threads, call fn(comm) on each with a world
  /// communicator, join, and hand the heap the ranks freed back to the OS,
  /// as a finished job would. `options` sets receive deadlines (deadlock
  /// detection), payload verification and a fault-injection plan.
  /// Exceptions thrown by any rank are rethrown (first by rank order) after
  /// all threads have been joined; when a rank fails, every other rank's
  /// blocking receive throws Aborted carrying the failing rank's message
  /// (clean collective abort, no hang). `report` (when non-null) gets the
  /// failure post-mortem *before* the primary exception is rethrown, so a
  /// supervising driver can diagnose the failure it just caught.
  static void run(int nranks, const std::function<void(Comm&)>& fn,
                  const MachineOptions& options = {},
                  MachineReport* report = nullptr);
};

// ---- templated collective implementations ---------------------------------

namespace detail {
template <typename T>
void apply_op(std::span<T> acc, std::span<const T> in, ReduceOp op) {
  HACC_CHECK(acc.size() == in.size());
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += in[i];
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < acc.size(); ++i)
        if (in[i] < acc[i]) acc[i] = in[i];
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < acc.size(); ++i)
        if (in[i] > acc[i]) acc[i] = in[i];
      break;
  }
}
inline constexpr int kTagReduce = -101;
inline constexpr int kTagAllgather = -103;
inline constexpr int kTagAlltoall = -104;
inline constexpr int kTagGatherv = -107;
inline constexpr int kTagNeighbor = -108;
}  // namespace detail

template <typename T>
void Comm::reduce(std::span<T> data, ReduceOp op, int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  telemetry::OpGuard telemetry_guard(telemetry::Op::kReduce);
  // Rotate ranks so `root` acts as rank 0 of the binomial tree.
  const int p = size();
  const int vrank = (rank_ - root + p) % p;
  std::vector<T> incoming(data.size());
  for (int dist = 1; dist < p; dist <<= 1) {
    if (vrank & dist) {
      const int dst = ((vrank - dist) + root) % p;
      send(dst, detail::kTagReduce, std::span<const T>(data));
      return;  // sent partial result up the tree; done
    }
    if (vrank + dist < p) {
      const int src = ((vrank + dist) + root) % p;
      recv(src, detail::kTagReduce, std::span<T>(incoming));
      detail::apply_op(data, std::span<const T>(incoming), op);
    }
  }
}

template <typename T>
void Comm::allgather(std::span<const T> send_buf, std::span<T> recv_buf) const {
  static_assert(std::is_trivially_copyable_v<T>);
  telemetry::OpGuard telemetry_guard(telemetry::Op::kAllgather);
  const int p = size();
  const std::size_t chunk = send_buf.size();
  HACC_CHECK(recv_buf.size() == chunk * static_cast<std::size_t>(p));
  std::copy(send_buf.begin(), send_buf.end(),
            recv_buf.begin() + static_cast<std::ptrdiff_t>(chunk) * rank_);
  // Ring: in step s, forward the block that originated at rank (rank - s).
  const int next = (rank_ + 1) % p;
  const int prev = (rank_ - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    const int send_block = (rank_ - s + p) % p;
    const int recv_block = (rank_ - s - 1 + p) % p;
    send(next, detail::kTagAllgather,
         std::span<const T>(
             recv_buf.subspan(chunk * static_cast<std::size_t>(send_block),
                              chunk)));
    recv(prev, detail::kTagAllgather,
         recv_buf.subspan(chunk * static_cast<std::size_t>(recv_block),
                          chunk));
  }
}

template <typename T>
std::vector<T> Comm::gatherv(std::span<const T> send_buf, int root,
                             std::vector<std::size_t>* counts) const {
  static_assert(std::is_trivially_copyable_v<T>);
  telemetry::OpGuard telemetry_guard(telemetry::Op::kGatherv);
  std::vector<T> out;
  if (rank_ == root) {
    if (counts != nullptr) counts->assign(static_cast<std::size_t>(size()), 0);
    for (int r = 0; r < size(); ++r) {
      std::vector<T> part;
      if (r == rank_) {
        part.assign(send_buf.begin(), send_buf.end());
      } else {
        part = recv_vector<T>(r, detail::kTagGatherv);
      }
      if (counts != nullptr) (*counts)[static_cast<std::size_t>(r)] = part.size();
      out.insert(out.end(), part.begin(), part.end());
    }
  } else {
    send(root, detail::kTagGatherv, send_buf);
  }
  return out;
}

template <typename T, typename PeerOf>
void Comm::exchange_v(std::size_t npeers, PeerOf peer_of, int tag,
                      std::span<const T> send_buf,
                      std::span<const std::size_t> send_counts,
                      std::vector<T>& recv_buf,
                      std::vector<std::size_t>& recv_counts) const {
  static_assert(std::is_trivially_copyable_v<T>);
  HACC_CHECK(send_counts.size() == npeers);
  std::size_t send_total = 0;
  for (const std::size_t c : send_counts) send_total += c;
  HACC_CHECK(send_total == send_buf.size());

  // Buffered sends to every non-self peer first (deadlock-free), then
  // blocking receives in peer order; the per-(source, tag) FIFO keeps
  // successive calls from interleaving.
  std::size_t soff = 0, self_off = 0, self_count = 0;
  for (std::size_t s = 0; s < npeers; ++s) {
    const std::size_t c = send_counts[s];
    if (peer_of(s) == rank_) {
      self_off = soff;
      self_count = c;
    } else {
      send(peer_of(s), tag, send_buf.subspan(soff, c));
    }
    soff += c;
  }

  // Each block lands at the running offset. The buffer grows only when a
  // block lands past its current end, so a reused buffer is written once —
  // no zero-fill ahead of the copy — and is cut to the total at the end.
  recv_counts.resize(npeers);
  std::size_t at = 0;
  for (std::size_t s = 0; s < npeers; ++s) {
    // The self block is copied straight from `send`, bypassing the mailbox
    // (not counted by telemetry — it never crosses a rank boundary).
    const bool self = peer_of(s) == rank_;
    const std::vector<std::byte> bytes =
        self ? std::vector<std::byte>() : recv_bytes(peer_of(s), tag);
    const std::span<const std::byte> block =
        self ? std::as_bytes(send_buf.subspan(self_off, self_count))
             : std::span<const std::byte>(bytes);
    HACC_CHECK(block.size() % sizeof(T) == 0);
    const std::size_t c = block.size() / sizeof(T);
    if (at + c > recv_buf.size()) recv_buf.resize(at + c);
    if (c > 0) std::memcpy(recv_buf.data() + at, block.data(), block.size());
    recv_counts[s] = c;
    at += c;
  }
  recv_buf.resize(at);
}

template <typename T>
void Comm::alltoallv_into(std::span<const T> send_buf,
                          std::span<const std::size_t> send_counts,
                          std::vector<T>& recv_buf,
                          std::vector<std::size_t>& recv_counts) const {
  telemetry::OpGuard telemetry_guard(telemetry::Op::kAlltoall);
  exchange_v(
      static_cast<std::size_t>(size()),
      [](std::size_t s) { return static_cast<int>(s); }, detail::kTagAlltoall,
      send_buf, send_counts, recv_buf, recv_counts);
}

template <typename T>
void Comm::neighbor_alltoallv(std::span<const int> neighbors,
                              std::span<const T> send_buf,
                              std::span<const std::size_t> send_counts,
                              std::vector<T>& recv_buf,
                              std::vector<std::size_t>& recv_counts) const {
  telemetry::OpGuard telemetry_guard(telemetry::Op::kNeighborAlltoall);
  exchange_v(
      neighbors.size(), [&](std::size_t s) { return neighbors[s]; },
      detail::kTagNeighbor, send_buf, send_counts, recv_buf, recv_counts);
}

}  // namespace hacc::comm
