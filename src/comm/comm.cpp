#include "comm/comm.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <tuple>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "comm/fault.h"
#include "util/telemetry.h"

namespace hacc::comm {

namespace {
std::string format_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", s);
  return buf;
}
}  // namespace

/// Shared state of one simulated machine: a mailbox per (thread) rank, the
/// runtime options, a context-id allocator for communicator creation, and
/// the fault-propagation machinery (first-failure cause + per-rank wait
/// registry for stuck-rank reports).
class MachineState {
 public:
  /// What a rank is blocked on right now: written by the owner rank around
  /// every deadline-carrying receive, read by whichever rank times out
  /// first to assemble the who-waits-on-whom report. Relaxed/acquire
  /// atomics — the report is diagnostic, the fields are independent.
  ///
  /// The kTimedOut state is sticky (cleared only by the next receive):
  /// in a mutual deadlock every participant expires at nearly the same
  /// instant, and a plain boolean would let the first rank to unwind erase
  /// its row before a peer assembles the report — the report would then
  /// name only some of the deadlocked ranks.
  enum : int { kIdle = 0, kWaiting = 1, kTimedOut = 2 };
  struct WaitSlot {
    std::atomic<int> state{kIdle};
    std::atomic<int> peer{-1};
    std::atomic<int> tag{0};
    std::atomic<int> op{0};  // telemetry::Op
    std::atomic<std::uint64_t> since_ns{0};
  };

  /// RAII registration of a blocking receive in the owner's wait slot.
  class WaitGuard {
   public:
    WaitGuard(WaitSlot& slot, int peer, int tag, telemetry::Op op)
        : slot_(slot) {
      slot_.peer.store(peer, std::memory_order_relaxed);
      slot_.tag.store(tag, std::memory_order_relaxed);
      slot_.op.store(static_cast<int>(op), std::memory_order_relaxed);
      slot_.since_ns.store(util::now_ns(), std::memory_order_relaxed);
      slot_.state.store(kWaiting, std::memory_order_release);
    }
    /// Mark this receive expired (before the report is assembled); stays
    /// visible to peers' reports until the owner's next receive.
    void timed_out() {
      slot_.state.store(kTimedOut, std::memory_order_release);
    }
    ~WaitGuard() {
      int expected = kWaiting;
      slot_.state.compare_exchange_strong(expected, kIdle,
                                          std::memory_order_release,
                                          std::memory_order_relaxed);
    }
    WaitGuard(const WaitGuard&) = delete;
    WaitGuard& operator=(const WaitGuard&) = delete;

   private:
    WaitSlot& slot_;
  };

  MachineState(int nranks, const MachineOptions& options)
      : options_(options),
        mailboxes_(static_cast<std::size_t>(nranks)),
        waits_(static_cast<std::size_t>(nranks)) {}

  const MachineOptions& options() const noexcept { return options_; }

  Mailbox& mailbox(int machine_rank) {
    HACC_CHECK(machine_rank >= 0 &&
               machine_rank < static_cast<int>(mailboxes_.size()));
    return mailboxes_[static_cast<std::size_t>(machine_rank)];
  }

  WaitSlot& wait_slot(int machine_rank) {
    return waits_[static_cast<std::size_t>(machine_rank)];
  }

  std::uint64_t allocate_contexts(std::uint64_t n) {
    return next_context_.fetch_add(n);
  }

  /// Record the machine's first failure and wake all blocked receivers with
  /// an Aborted carrying its cause, so one rank's error becomes a clean
  /// collective abort with a diagnosis instead of a distributed hang.
  void fail(int machine_rank, const std::string& what) {
    bool expected = false;
    if (!failed_.compare_exchange_strong(expected, true)) return;
    const std::string cause =
        "rank " + std::to_string(machine_rank) + " failed: " + what;
    for (auto& mb : mailboxes_) mb.abort(cause);
  }

  /// The who-waits-on-whom report assembled when `self`'s receive deadline
  /// expires: one line per rank still blocked in a receive.
  std::string stuck_report(int self, double timeout_s) {
    const std::uint64_t now = util::now_ns();
    std::string r = "comm deadlock/timeout: rank " + std::to_string(self) +
                    " receive exceeded " + format_seconds(timeout_s) +
                    "s; stuck-rank report:";
    for (std::size_t i = 0; i < waits_.size(); ++i) {
      WaitSlot& s = waits_[i];
      const int state = s.state.load(std::memory_order_acquire);
      const bool self_row = static_cast<int>(i) == self;
      if (!self_row && state == kIdle) continue;
      const auto since = s.since_ns.load(std::memory_order_relaxed);
      const double for_s =
          since != 0 && now > since ? static_cast<double>(now - since) * 1e-9
                                    : 0.0;
      r += "\n  rank " + std::to_string(i) + ": waiting on peer " +
           std::to_string(s.peer.load(std::memory_order_relaxed)) +
           " (tag=" +
           std::to_string(s.tag.load(std::memory_order_relaxed)) + ", op=" +
           telemetry::op_name(static_cast<telemetry::Op>(
               s.op.load(std::memory_order_relaxed))) +
           ", " + format_seconds(for_s) + "s" +
           (state == kTimedOut ? ", timed out" : "") + ")";
    }
    return r;
  }

 private:
  MachineOptions options_;
  std::vector<Mailbox> mailboxes_;
  std::vector<WaitSlot> waits_;
  std::atomic<std::uint64_t> next_context_{1};  // 0 = world
  std::atomic<bool> failed_{false};
};

void Comm::deliver_bytes(int dest, int tag,
                         std::vector<std::byte>&& payload) const {
  HACC_CHECK(valid());
  HACC_CHECK_MSG(dest >= 0 && dest < size(), "send: bad destination rank");
  Message msg;
  msg.context = context_;
  msg.source = rank_;
  msg.tag = tag;
  if (machine_->options().verify_payloads) {
    msg.checksum = payload_checksum(payload.data(), payload.size());
    msg.checksummed = true;
  }
  telemetry::on_send(payload.size());
  msg.payload = std::move(payload);
  // The fault hook runs *after* the checksum: an injected corruption models
  // damage in transit, which verify_payloads must catch at the receiver. A
  // dropped message was "sent" (it left this rank) but never arrives.
  if (!fault::on_send(tag, msg.payload)) return;
  mailbox_of(dest).deliver(std::move(msg));
}

void Comm::send_bytes(int dest, int tag,
                      std::span<const std::byte> bytes) const {
  deliver_bytes(dest, tag, std::vector<std::byte>(bytes.begin(), bytes.end()));
}

void Comm::send_bytes(int dest, int tag, std::vector<std::byte>&& bytes) const {
  deliver_bytes(dest, tag, std::move(bytes));
}

std::vector<std::byte> Comm::recv_bytes(int source, int tag) const {
  HACC_CHECK(valid());
  HACC_CHECK_MSG(source >= 0 && source < size(), "recv: bad source rank");
  fault::on_recv(source, tag);
  const double timeout_s = machine_->options().recv_timeout_s;
  Message msg;
  if (timeout_s > 0) {
    const int self = group()[static_cast<std::size_t>(rank_)];
    const int peer = group()[static_cast<std::size_t>(source)];
    MachineState::WaitGuard guard(machine_->wait_slot(self), peer, tag,
                                  telemetry::current_op());
    auto got = mailbox_of(rank_).receive_for(context_, source, tag, timeout_s);
    if (!got) {
      guard.timed_out();  // keep this row visible to peers' reports
      throw DeadlockError(machine_->stuck_report(self, timeout_s));
    }
    msg = std::move(*got);
  } else {
    msg = mailbox_of(rank_).receive(context_, source, tag);
  }
  if (msg.checksummed &&
      payload_checksum(msg.payload.data(), msg.payload.size()) !=
          msg.checksum) {
    throw Error("comm: payload corruption detected on rank " +
                std::to_string(group()[static_cast<std::size_t>(rank_)]) +
                " (from rank " +
                std::to_string(group()[static_cast<std::size_t>(source)]) +
                ", tag " + std::to_string(tag) + ", " +
                std::to_string(msg.payload.size()) + " bytes)");
  }
  telemetry::on_recv(msg.payload.size());
  return std::move(msg.payload);
}

Mailbox& Comm::mailbox_of(int rank_in_comm) const {
  return machine_->mailbox(group()[static_cast<std::size_t>(rank_in_comm)]);
}

void Comm::barrier() const {
  // Dissemination barrier: log2(P) rounds of buffered send + blocking recv.
  telemetry::OpGuard telemetry_guard(telemetry::Op::kBarrier);
  constexpr int kTagBarrier = -100;
  const int p = size();
  std::byte token{0};
  for (int dist = 1; dist < p; dist <<= 1) {
    const int to = (rank_ + dist) % p;
    const int from = (rank_ - dist + p) % p;
    send_bytes(to, kTagBarrier, std::span<const std::byte>(&token, 1));
    (void)recv_bytes(from, kTagBarrier);
  }
}

void Comm::bcast_bytes(std::span<std::byte> data, int root) const {
  telemetry::OpGuard telemetry_guard(telemetry::Op::kBcast);
  constexpr int kTagBcast = -99;
  const int p = size();
  const int vrank = (rank_ - root + p) % p;
  // Binomial tree: find highest bit of vrank = the parent distance.
  int recv_dist = 0;
  for (int dist = 1; dist < p; dist <<= 1) {
    if (vrank & dist) recv_dist = dist;
  }
  std::vector<std::byte> owned;
  if (vrank != 0) {
    const int parent = ((vrank - recv_dist) + root) % p;
    owned = recv_bytes(parent, kTagBcast);
    HACC_CHECK(owned.size() == data.size());
    std::copy(owned.begin(), owned.end(), data.begin());
  }
  // Forward to children: distances above our own parent distance. The last
  // forward of a non-root rank moves the received payload instead of
  // copying it (rvalue send_bytes overload).
  int last_child = -1;
  for (int dist = (recv_dist == 0 ? 1 : recv_dist << 1); dist < p;
       dist <<= 1) {
    if (vrank + dist < p) last_child = ((vrank + dist) + root) % p;
  }
  for (int dist = (recv_dist == 0 ? 1 : recv_dist << 1); dist < p;
       dist <<= 1) {
    if (vrank + dist < p) {
      const int child = ((vrank + dist) + root) % p;
      if (child == last_child && !owned.empty())
        send_bytes(child, kTagBcast, std::move(owned));
      else
        send_bytes(child, kTagBcast, data);
    }
  }
}

Comm Comm::split(int color, int key) const {
  HACC_CHECK(valid());
  const int p = size();
  struct Entry {
    int color, key, rank;
  };
  const Entry mine{color, key, rank_};
  std::vector<Entry> all(static_cast<std::size_t>(p));
  // Everyone learns everyone's (color, key).
  allgather(std::span<const Entry>(&mine, 1), std::span<Entry>(all));

  // Stable order within a color group: by key, ties by old rank.
  std::vector<Entry> members;
  std::vector<int> colors_seen;
  for (const auto& e : all) {
    if (e.color == color) members.push_back(e);
    if (e.color >= 0 &&
        std::find(colors_seen.begin(), colors_seen.end(), e.color) ==
            colors_seen.end())
      colors_seen.push_back(e.color);
  }
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.rank) < std::tie(b.key, b.rank);
  });

  // Deterministic context allocation: every rank computes the same color
  // ordering, and rank 0 of the parent allocates one context id per color,
  // broadcast to all. (A single atomic fetch_add on rank 0 keeps ids
  // machine-unique even across concurrent splits of disjoint comms.)
  // Every rank — including excluded ones — must take part in this broadcast:
  // it runs on the *parent* communicator.
  std::sort(colors_seen.begin(), colors_seen.end());
  std::uint64_t base = 0;
  if (rank_ == 0 && !colors_seen.empty())
    base = machine_->allocate_contexts(colors_seen.size());
  base = bcast_value(base, 0);

  if (color < 0) return Comm{};  // not a member of any new communicator
  const auto color_index = static_cast<std::uint64_t>(
      std::find(colors_seen.begin(), colors_seen.end(), color) -
      colors_seen.begin());
  const std::uint64_t new_context = base + color_index;

  std::vector<int> new_group;
  int new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    new_group.push_back(group()[static_cast<std::size_t>(members[i].rank)]);
    if (members[i].rank == rank_) new_rank = static_cast<int>(i);
  }
  HACC_CHECK(new_rank >= 0);
  return Comm(machine_, new_context, new_rank, std::move(new_group));
}

void Machine::run(int nranks, const std::function<void(Comm&)>& fn,
                  const MachineOptions& options, MachineReport* report) {
  HACC_CHECK_MSG(nranks > 0, "Machine::run needs at least one rank");
  if (report != nullptr) *report = MachineReport{};
  MachineState state(nranks, options);
  std::vector<int> world(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) world[static_cast<std::size_t>(r)] = r;

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      fault::Scope fault_scope(options.fault_plan, r, nranks);
      Comm comm(&state, /*context=*/0, r, world);
      try {
        fn(comm);
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Record the cause and unblock peers waiting on this rank: their
        // receives throw Aborted("rank R failed: ..."), so the whole
        // machine dies with the *first* failure's diagnosis attached.
        state.fail(r, e.what());
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        state.fail(r, "unknown exception");
      }
    });
  }
  for (auto& t : threads) t.join();
  // The ranks' glibc arenas outlive them, holding what they freed for
  // whichever thread picks them up next: hand it back to the OS, so what
  // one machine leaves does not set the footprint of the next.
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  // Post-mortem + primary failure: a rank whose own exception is an Aborted
  // merely observed a peer's death; everything else is a root cause. The
  // rethrow prefers a root cause over the Aborted it induced.
  std::exception_ptr primary, aborted;
  for (int r = 0; r < nranks; ++r) {
    auto& e = errors[static_cast<std::size_t>(r)];
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const Aborted&) {
      aborted = e;
    } catch (const std::exception& ex) {
      if (report != nullptr) {
        report->failed_ranks.push_back(r);
        if (dynamic_cast<const DeadlockError*>(&ex) != nullptr)
          report->deadlock = true;
        if (report->first_error.empty()) report->first_error = ex.what();
      }
      if (!primary) primary = e;
    } catch (...) {
      if (report != nullptr) {
        report->failed_ranks.push_back(r);
        if (report->first_error.empty())
          report->first_error = "unknown exception";
      }
      if (!primary) primary = e;
    }
  }
  if (primary) std::rethrow_exception(primary);
  if (aborted) std::rethrow_exception(aborted);
}

}  // namespace hacc::comm
