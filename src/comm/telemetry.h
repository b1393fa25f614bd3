// Comm telemetry: attribute every byte and message to an operation class.
//
// The SimMPI collectives are built on buffered point-to-point sends, so one
// counting site — send_bytes/recv_bytes — sees all traffic. What it cannot
// see there is *why* the bytes moved; each collective therefore installs a
// thread-local OpGuard naming its class, and the p2p layer attributes to
// whatever class is current (kP2p when none). Nested collectives attribute
// to the innermost guard: allreduce = reduce + bcast shows up as those two.
//
// Accounting semantics (comm_test asserts these exactly):
//  - bytes_sent/bytes_recv count payload bytes through the mailbox
//    transport, including zero-byte messages (msgs_* still increments) and
//    internal control traffic (barrier tokens). The variable-size exchanges
//    (alltoallv_into, neighbor_alltoallv) send no control traffic: one
//    payload message per peer, its count read from the message length.
//    Self-addressed fast-path copies that bypass the mailbox (the
//    exchanges' own-block memcpy) are NOT counted — they never cross a rank
//    boundary.
//  - calls counts collective entries (once per rank per call).
// All counts land on the thread-bound obs::Counters; without a binding the
// cost is a null check.
#pragma once

#include <cstddef>

#include "obs/counters.h"
#include "obs/obs.h"

namespace hacc::comm::telemetry {

enum class Op : int {
  kP2p = 0,
  kBarrier,
  kBcast,
  kReduce,
  kAllgather,
  kGatherv,
  kAlltoall,
  kNeighborAlltoall,
  kOpCount,
};

/// The five counter ids of one op class
/// ("comm.<op>.{bytes_sent,msgs_sent,bytes_recv,msgs_recv,calls}").
struct OpIds {
  NameId bytes_sent, msgs_sent, bytes_recv, msgs_recv, calls;
};
const OpIds& ids(Op op) noexcept;

/// Short human-readable class name ("p2p", "bcast", ...); used by the
/// stuck-rank report and fault-injection messages.
const char* op_name(Op op) noexcept;

/// The calling thread's current attribution class (kP2p by default).
Op current_op() noexcept;

/// RAII: attributes nested sends/recvs to `op` and bumps its calls counter.
/// Also the single fault-injection site for collectives: the constructor
/// runs fault::on_collective(op), which may throw on an injected failure.
class OpGuard {
 public:
  explicit OpGuard(Op op);
  ~OpGuard();
  OpGuard(const OpGuard&) = delete;
  OpGuard& operator=(const OpGuard&) = delete;

 private:
  Op prev_;
};

/// Count one message of `bytes` payload, sent/received under the current
/// class. Called by Comm::send_bytes / Comm::recv_bytes.
void on_send(std::size_t bytes) noexcept;
void on_recv(std::size_t bytes) noexcept;

}  // namespace hacc::comm::telemetry
