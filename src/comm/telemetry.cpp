#include "comm/telemetry.h"

#include <array>
#include <string>

#include "comm/fault.h"

namespace hacc::comm::telemetry {

namespace {

constexpr std::array<const char*, static_cast<int>(Op::kOpCount)> kOpNames = {
    "p2p",     "barrier", "bcast",    "reduce",
    "allgather", "gatherv", "alltoall", "nbr_alltoall"};

std::array<OpIds, static_cast<int>(Op::kOpCount)> build_ids() {
  std::array<OpIds, static_cast<int>(Op::kOpCount)> table{};
  for (int i = 0; i < static_cast<int>(Op::kOpCount); ++i) {
    const std::string base = std::string("comm.") + kOpNames[static_cast<std::size_t>(i)];
    table[static_cast<std::size_t>(i)] =
        OpIds{obs::counter_id(base + ".bytes_sent"),
              obs::counter_id(base + ".msgs_sent"),
              obs::counter_id(base + ".bytes_recv"),
              obs::counter_id(base + ".msgs_recv"),
              obs::counter_id(base + ".calls")};
  }
  return table;
}

const std::array<OpIds, static_cast<int>(Op::kOpCount)>& id_table() noexcept {
  static const auto table = build_ids();
  return table;
}

thread_local Op g_op = Op::kP2p;

}  // namespace

const OpIds& ids(Op op) noexcept {
  return id_table()[static_cast<std::size_t>(op)];
}

const char* op_name(Op op) noexcept {
  return kOpNames[static_cast<std::size_t>(op)];
}

Op current_op() noexcept { return g_op; }

OpGuard::OpGuard(Op op) : prev_(g_op) {
  fault::on_collective(op);  // may throw an injected collective failure
  g_op = op;
  obs::add_counter(ids(op).calls, 1);
}

OpGuard::~OpGuard() { g_op = prev_; }

void on_send(std::size_t bytes) noexcept {
  obs::Counters* c = obs::counters();
  if (c == nullptr) return;
  const OpIds& i = ids(g_op);
  c->add(i.bytes_sent, bytes);
  c->add(i.msgs_sent, 1);
}

void on_recv(std::size_t bytes) noexcept {
  obs::Counters* c = obs::counters();
  if (c == nullptr) return;
  const OpIds& i = ids(g_op);
  c->add(i.bytes_recv, bytes);
  c->add(i.msgs_recv, 1);
}

}  // namespace hacc::comm::telemetry
