#include "comm/fault.h"

#include <chrono>
#include <thread>

#include "util/rng.h"

namespace hacc::comm {

namespace {

thread_local FaultPlan* g_plan = nullptr;
thread_local int g_rank = -1;
thread_local int g_width = 0;
thread_local int g_step = 0;

/// The machine rank a spec fires on at the installed width: specs naming a
/// rank the shrunken machine no longer has fold onto a surviving rank, so a
/// chaos campaign planned at the launch width keeps applying pressure after
/// every elastic shrink.
int victim_rank(const fault::Spec& spec) {
  if (spec.rank < 0 || g_width <= 0) return spec.rank;
  return spec.rank % g_width;
}

/// Match-and-count: true when `spec` should fire for this event. Advances
/// the spec's seen/fired counters; the caller performs the fault action.
bool fire(fault::Spec& spec) {
  const int seen = spec.seen.fetch_add(1, std::memory_order_relaxed);
  if (seen != spec.nth && spec.nth >= 0) return false;
  const int fired = spec.fires.fetch_add(1, std::memory_order_relaxed);
  if (spec.max_fires >= 0 && fired >= spec.max_fires) return false;
  return true;
}

bool tag_matches(const fault::Spec& spec, int tag) {
  return spec.tag == fault::kAnyTag || spec.tag == tag;
}

}  // namespace

fault::Spec& FaultPlan::add(int rank, fault::Kind kind) {
  fault::Spec& s = specs_.emplace_back();
  s.rank = rank;
  s.kind = kind;
  return s;
}

FaultPlan FaultPlan::clone_fresh() const {
  FaultPlan out;
  for (const fault::Spec& s : specs_) {
    fault::Spec& c = out.specs_.emplace_back();
    c.rank = s.rank;
    c.kind = s.kind;
    c.step = s.step;
    c.tag = s.tag;
    c.nth = s.nth;
    c.stall_seconds = s.stall_seconds;
    c.op = s.op;
    c.nbits = s.nbits;
    c.bit = s.bit;
    c.element = s.element;
    c.mem_seed = s.mem_seed;
    c.max_fires = s.max_fires;
    // fires/seen stay zero: the clone has never fired.
  }
  return out;
}

FaultPlan& FaultPlan::kill_at_step(int rank, int step) {
  fault::Spec& s = add(rank, fault::Kind::kKillAtStep);
  s.step = step;
  return *this;
}

FaultPlan& FaultPlan::stall_recv(int rank, double seconds, int nth, int tag) {
  fault::Spec& s = add(rank, fault::Kind::kStallRecv);
  s.stall_seconds = seconds;
  s.nth = nth;
  s.tag = tag;
  return *this;
}

FaultPlan& FaultPlan::drop_send(int rank, int tag, int nth) {
  fault::Spec& s = add(rank, fault::Kind::kDropSend);
  s.tag = tag;
  s.nth = nth;
  return *this;
}

FaultPlan& FaultPlan::corrupt_send(int rank, int tag, int nth) {
  fault::Spec& s = add(rank, fault::Kind::kCorruptSend);
  s.tag = tag;
  s.nth = nth;
  return *this;
}

FaultPlan& FaultPlan::fail_collective(int rank, telemetry::Op op, int nth) {
  fault::Spec& s = add(rank, fault::Kind::kFailCollective);
  s.op = op;
  s.nth = nth;
  return *this;
}

FaultPlan& FaultPlan::flip_bits_in_particles(int rank, int step, int nbits,
                                             std::uint64_t seed) {
  fault::Spec& s = add(rank, fault::Kind::kFlipParticleMemory);
  s.step = step;
  s.nbits = nbits;
  s.mem_seed = seed;
  return *this;
}

FaultPlan& FaultPlan::flip_bits_in_grid(int rank, int step, int nbits,
                                        std::uint64_t seed) {
  fault::Spec& s = add(rank, fault::Kind::kFlipGridMemory);
  s.step = step;
  s.nbits = nbits;
  s.mem_seed = seed;
  return *this;
}

FaultPlan& FaultPlan::repeat(int times) {
  HACC_CHECK_MSG(!specs_.empty(), "repeat() needs a preceding fault spec");
  specs_.back().max_fires = times;
  specs_.back().nth = -1;  // every matching event, not just the nth
  return *this;
}

FaultPlan& FaultPlan::pin_bit(int bit) {
  HACC_CHECK_MSG(!specs_.empty() &&
                     (specs_.back().kind == fault::Kind::kFlipParticleMemory ||
                      specs_.back().kind == fault::Kind::kFlipGridMemory),
                 "pin_bit() needs a preceding memory-flip spec");
  specs_.back().bit = bit;
  return *this;
}

FaultPlan& FaultPlan::pin_element(std::uint64_t element) {
  HACC_CHECK_MSG(!specs_.empty() &&
                     (specs_.back().kind == fault::Kind::kFlipParticleMemory ||
                      specs_.back().kind == fault::Kind::kFlipGridMemory),
                 "pin_element() needs a preceding memory-flip spec");
  specs_.back().element = static_cast<std::int64_t>(element);
  return *this;
}

namespace fault {

Scope::Scope(FaultPlan* plan, int rank, int width) noexcept
    : prev_plan_(g_plan), prev_rank_(g_rank), prev_width_(g_width) {
  g_plan = plan;
  g_rank = rank;
  g_width = width;
  g_step = 0;
}

Scope::~Scope() {
  g_plan = prev_plan_;
  g_rank = prev_rank_;
  g_width = prev_width_;
}

bool active() noexcept { return g_plan != nullptr; }

void set_step(int step) {
  g_step = step;
  if (g_plan == nullptr) return;
  for (Spec& s : g_plan->specs()) {
    if (victim_rank(s) != g_rank || s.kind != Kind::kKillAtStep ||
        s.step != step)
      continue;
    const int fired = s.fires.fetch_add(1, std::memory_order_relaxed);
    if (s.max_fires >= 0 && fired >= s.max_fires) continue;
    throw RankKilled("fault injection: rank " + std::to_string(g_rank) +
                     " killed at step " + std::to_string(step));
  }
}

int current_step() noexcept { return g_step; }

bool on_send(int tag, std::vector<std::byte>& payload) {
  if (g_plan == nullptr) return true;
  for (Spec& s : g_plan->specs()) {
    if (victim_rank(s) != g_rank || !tag_matches(s, tag)) continue;
    if (s.kind == Kind::kDropSend) {
      if (fire(s)) return false;
    } else if (s.kind == Kind::kCorruptSend) {
      if (fire(s) && !payload.empty())
        payload[payload.size() / 2] ^= std::byte{0x40};
    }
  }
  return true;
}

void on_recv(int /*source*/, int tag) {
  if (g_plan == nullptr) return;
  for (Spec& s : g_plan->specs()) {
    if (victim_rank(s) != g_rank || s.kind != Kind::kStallRecv ||
        !tag_matches(s, tag))
      continue;
    if (fire(s))
      std::this_thread::sleep_for(
          std::chrono::duration<double>(s.stall_seconds));
  }
}

std::vector<MemoryFlip> take_memory_flips(MemoryTarget target,
                                          std::uint64_t elements, int bit_lo,
                                          int bit_hi) {
  std::vector<MemoryFlip> out;
  if (g_plan == nullptr || elements == 0 || bit_hi <= bit_lo) return out;
  const Kind want = target == MemoryTarget::kParticles
                        ? Kind::kFlipParticleMemory
                        : Kind::kFlipGridMemory;
  for (Spec& s : g_plan->specs()) {
    if (victim_rank(s) != g_rank || s.kind != want || s.step != g_step)
      continue;
    const int fired = s.fires.fetch_add(1, std::memory_order_relaxed);
    if (s.max_fires >= 0 && fired >= s.max_fires) continue;
    // Draw (element, bit) pairs from the spec's own counter-based stream:
    // the damage is a pure function of (mem_seed, fired), identical on
    // every re-run that lets the spec fire.
    const Philox rng(s.mem_seed, 0x51DCu + static_cast<std::uint64_t>(fired));
    for (int i = 0; i < s.nbits; ++i) {
      const auto u = rng.uniform2(static_cast<std::uint64_t>(i));
      MemoryFlip flip;
      flip.element =
          s.element >= 0
              ? static_cast<std::uint64_t>(s.element) % elements
              : static_cast<std::uint64_t>(u[0] *
                                           static_cast<double>(elements)) %
                    elements;
      flip.bit = s.bit >= 0
                     ? s.bit
                     : bit_lo + static_cast<int>(
                                    u[1] * static_cast<double>(bit_hi - bit_lo)) %
                           (bit_hi - bit_lo);
      out.push_back(flip);
    }
  }
  return out;
}

void on_collective(telemetry::Op op) {
  if (g_plan == nullptr) return;
  for (Spec& s : g_plan->specs()) {
    if (victim_rank(s) != g_rank || s.kind != Kind::kFailCollective ||
        s.op != op)
      continue;
    if (fire(s))
      throw Error(std::string("fault injection: collective ") +
                  telemetry::op_name(op) + " failed on rank " +
                  std::to_string(g_rank));
  }
}

}  // namespace fault
}  // namespace hacc::comm
