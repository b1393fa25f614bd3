// Deterministic rank-fault injection for the SimMPI runtime.
//
// At the paper's scale the mean time between failures is shorter than a
// campaign, so the runtime must *provably* detect and survive rank faults —
// and the only way to prove it is to inject them on demand. A FaultPlan is a
// list of per-rank fault specs (kill at step N, stall a receive, drop or
// bit-flip a message in transit, fail a collective entry) that
// Machine::run installs on each rank thread; the comm layer consults the
// plan at its send/recv/collective sites through the thread-local hooks
// below. Every spec is one-shot by default and keeps its fired-state in the
// plan itself, so a kill at step 5 fires exactly once even across the
// repeated Machine::run attempts a Supervisor makes while recovering —
// which is exactly the semantics of a real node dying once.
//
// All hooks are no-ops (a thread-local null check) when no plan is
// installed, so production paths pay nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "comm/telemetry.h"
#include "util/error.h"

namespace hacc::comm {

/// Thrown on the victim rank when a kill fault fires (models the rank's
/// process dying). Peers observe it as an Aborted carrying this message.
class RankKilled : public Error {
 public:
  explicit RankKilled(const std::string& what) : Error(what) {}
};

namespace fault {

/// Matches any tag in a send/recv fault spec.
inline constexpr int kAnyTag = std::numeric_limits<int>::min();

enum class Kind : int {
  kKillAtStep,      ///< throw RankKilled when set_step(step) is reached
  kStallRecv,       ///< sleep before the nth matching receive
  kDropSend,        ///< silently drop the nth matching send in transit
  kCorruptSend,     ///< bit-flip a payload byte of the nth matching send
  kFailCollective,  ///< throw on the nth collective entry of an op class
  kFlipParticleMemory,  ///< flip bits in resident particle state at a step
  kFlipGridMemory,      ///< flip bits in the resident CIC grid at a step
};

struct Spec {
  int rank = -1;  ///< machine (world) rank the fault applies to; when the
                  ///< machine runs *narrower* than the rank named here (an
                  ///< elastic shrink), the fault is remapped to
                  ///< rank % width so a campaign planned at the launch
                  ///< width keeps exercising the survivors
  Kind kind = Kind::kKillAtStep;
  int step = -1;        ///< kKillAtStep: fire when this step begins
  int tag = kAnyTag;    ///< send/recv faults: required tag (kAnyTag = any)
  int nth = 0;          ///< fire on the nth (0-based) matching event
  double stall_seconds = 0;
  telemetry::Op op = telemetry::Op::kBarrier;  ///< kFailCollective class
  // kFlip*Memory: how many bits to corrupt, which bit and which logical
  // element (-1 = draw from the seeded stream), and the Philox seed that
  // makes the damage reproducible.
  int nbits = 1;
  int bit = -1;
  std::int64_t element = -1;
  std::uint64_t mem_seed = 0x5DC;
  int max_fires = 1;    ///< one-shot by default; <0 = unlimited
  std::atomic<int> fires{0};  ///< times this spec has fired (survives runs)
  std::atomic<int> seen{0};   ///< matching events observed (drives `nth`)
};

/// One resident-memory corruption: flip `bit` of logical element `element`
/// of the targeted array (the caller maps elements to its own storage).
struct MemoryFlip {
  std::uint64_t element = 0;
  int bit = 0;
};

/// Which resident array a kFlip*Memory spec attacks.
enum class MemoryTarget { kParticles, kGrid };

}  // namespace fault

/// A deterministic, test-drivable fault schedule shared by all ranks of a
/// Machine::run. Build it with the chained helpers, pass it through
/// MachineOptions. Spec state (fired counters) lives in the plan, so the
/// same plan can supervise several consecutive Machine::run attempts.
///
/// Concurrency: the fired/seen counters are atomics and every hook uses a
/// single fetch_add to claim a firing, so a plan shared by several
/// *concurrent* machines in one process (a campaign) can never double-fire
/// a one-shot spec — but sharing does make one-shot mean once per
/// *process*: the first run to reach the trigger consumes it for everyone.
/// Campaign drivers that want every run to see its full schedule hand each
/// run its own instance via clone_fresh().
class FaultPlan {
 public:
  FaultPlan() = default;
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;
  // Movable (the deque's nodes transfer; the non-movable atomic Specs stay
  // where they are) so clone_fresh() can return by value.
  FaultPlan(FaultPlan&&) noexcept = default;
  FaultPlan& operator=(FaultPlan&&) noexcept = default;

  /// A deep copy of the schedule with all firing state (fires/seen) reset
  /// to zero — a plan that has never fired. The per-run instance a
  /// campaign hands each of its concurrent runs.
  FaultPlan clone_fresh() const;

  /// Kill `rank` when fault::set_step(step) is called on it.
  FaultPlan& kill_at_step(int rank, int step);
  /// Sleep `seconds` before `rank`'s nth receive matching `tag`.
  FaultPlan& stall_recv(int rank, double seconds, int nth = 0,
                        int tag = fault::kAnyTag);
  /// Drop `rank`'s nth send matching `tag` (the receiver never sees it).
  FaultPlan& drop_send(int rank, int tag = fault::kAnyTag, int nth = 0);
  /// Bit-flip a byte of `rank`'s nth send matching `tag` *after* the
  /// payload checksum is computed — models wire/memory corruption that
  /// MachineOptions::verify_payloads must catch.
  FaultPlan& corrupt_send(int rank, int tag = fault::kAnyTag, int nth = 0);
  /// Throw on `rank`'s nth collective entry of class `op`.
  FaultPlan& fail_collective(int rank, telemetry::Op op, int nth = 0);
  /// Flip `nbits` seeded-random bits of `rank`'s resident particle state
  /// (positions/velocities/mass of actives) when step `step` begins —
  /// silent corruption the comm layer never sees. One-shot across
  /// Supervisor re-runs, like kill_at_step.
  FaultPlan& flip_bits_in_particles(int rank, int step, int nbits = 1,
                                    std::uint64_t seed = 0x5DC);
  /// Flip `nbits` seeded-random bits of `rank`'s resident CIC density grid
  /// right after the step's first deposit (high mantissa/exponent/sign
  /// bits, so the damage is physically consequential). One-shot.
  FaultPlan& flip_bits_in_grid(int rank, int step, int nbits = 1,
                               std::uint64_t seed = 0x9D1D);

  /// Make the most recently added spec repeatable (`times` < 0: forever).
  FaultPlan& repeat(int times);
  /// Pin the most recently added kFlip*Memory spec to one exact bit index
  /// instead of a seeded draw (property tests target specific bit classes).
  FaultPlan& pin_bit(int bit);
  /// Pin the most recently added kFlip*Memory spec to one logical element
  /// (taken modulo the target's element count) instead of a seeded draw,
  /// so a test can aim at one field of one particle.
  FaultPlan& pin_element(std::uint64_t element);

  std::deque<fault::Spec>& specs() noexcept { return specs_; }
  const std::deque<fault::Spec>& specs() const noexcept { return specs_; }
  bool empty() const noexcept { return specs_.empty(); }

 private:
  fault::Spec& add(int rank, fault::Kind kind);
  // deque: Spec holds atomics (non-movable); deque grows without moving.
  std::deque<fault::Spec> specs_;
};

namespace fault {

/// RAII: installs `plan` (may be null) for machine rank `rank` on the
/// calling thread of a `width`-rank machine. Machine::run wraps each rank
/// function in one. The width drives the elastic remapping: a spec naming
/// rank >= width fires on rank % width instead, so one FaultPlan stays
/// meaningful across the shrinking relaunches an elastic Supervisor makes.
class Scope {
 public:
  Scope(FaultPlan* plan, int rank, int width) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  FaultPlan* prev_plan_;
  int prev_rank_;
  int prev_width_;
};

/// True when a plan is installed on this thread.
bool active() noexcept;

/// Announce that step `step` is about to run on this rank (drivers call it
/// once per step on every rank). Fires any due kKillAtStep spec by throwing
/// RankKilled.
void set_step(int step);
/// The last step announced via set_step (0 before any).
int current_step() noexcept;

/// Send-side hook: may corrupt `payload` in place (kCorruptSend) or return
/// false to drop the message entirely (kDropSend).
[[nodiscard]] bool on_send(int tag, std::vector<std::byte>& payload);

/// Receive-side hook: applies kStallRecv delays.
void on_recv(int source, int tag);

/// Collective-entry hook (called by telemetry::OpGuard): fires
/// kFailCollective by throwing hacc::Error.
void on_collective(telemetry::Op op);

/// Resident-memory corruption hook: the flips due on this rank at the
/// current step (set_step) for `target`, over a logical array of `elements`
/// elements whose usable bits are [bit_lo, bit_hi). Element and bit indices
/// are drawn from Philox(spec.mem_seed), so the same plan damages the same
/// state on every re-run; a pinned bit overrides the bit draw. Consuming is
/// firing: one-shot specs never return flips twice, even across Supervisor
/// re-runs. Empty when no plan is installed.
std::vector<MemoryFlip> take_memory_flips(MemoryTarget target,
                                          std::uint64_t elements, int bit_lo,
                                          int bit_hi);

}  // namespace fault
}  // namespace hacc::comm
