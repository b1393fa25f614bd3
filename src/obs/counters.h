// Per-rank counter registry: monotonic counters and latest-value gauges.
//
// Counter identity is an interned NameId shared with the global name table
// (util/names.h); counter_id()/gauge_id() additionally record the kind so
// downstream consumers (the ledger) know whether to difference per step
// (counters) or report the absolute value (gauges). Slots are atomics, so
// any thread bound to the same Counters — the rank thread plus OpenMP
// workers or test threads — may bump concurrently; adds are relaxed
// fetch_adds with no allocation ever.
//
// Taxonomy in use (see DESIGN.md §observability for the full table):
//   comm.<op>.bytes_sent / msgs_sent / bytes_recv / msgs_recv / calls
//   fft.transpose.bytes, fft.transforms
//   tree.pp_interactions, tree.pp_listed, tree.walk_visits
//   refresh.migrated + refresh.active / refresh.passive (gauges)
//   gio.bytes_written, gio.bytes_read
//   mem.peak_rss_bytes (gauge)
//   phase.<x>.ns / phase.<x>.calls (obs::PhaseScope; see phase_ids)
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/names.h"

namespace hacc::obs {

enum class CounterKind : std::uint8_t {
  kCounter,    ///< monotonic; per-step deltas are meaningful
  kGauge,      ///< latest value; report absolute
  kHistogram,  ///< distribution; slot lives in an obs::HistogramSet
};

/// Intern a monotonic counter name; idempotent.
NameId counter_id(std::string_view name);
/// Intern a gauge name; idempotent.
NameId gauge_id(std::string_view name);
/// Intern a histogram name (slots live in obs::HistogramSet); idempotent.
NameId histogram_id(std::string_view name);
/// The registered kind of an id (kCounter for plain interned names).
CounterKind kind_of(NameId id);

/// A timed phase <x>: the span name plus its two monotonic counter slots,
/// "phase.<x>.ns" (elapsed nanoseconds) and "phase.<x>.calls" (closed
/// scopes). obs::PhaseScope writes them; the Prometheus exporter, the run
/// ledger and Simulation::timers() read them back through phase_slot().
struct PhaseIds {
  NameId name = 0;
  NameId ns = 0;
  NameId calls = 0;
};
/// Intern phase `name` and its slots; idempotent. Allocates on first
/// sighting only — hot call sites keep the result in a namespace constant.
PhaseIds phase_ids(std::string_view name);

/// What a counter slot is to the phase timer. `phase` (the <x> of the
/// slot's name) is empty for kNone and views interned storage otherwise.
struct PhaseSlot {
  enum Kind : std::uint8_t { kNone, kNs, kCalls };
  Kind kind = kNone;
  std::string_view phase;
};
PhaseSlot phase_slot(NameId id);

class Counters {
 public:
  /// Ids at or above this are silently dropped (the taxonomy is static and
  /// tiny; the cap exists so the slot table can be a flat atomic array).
  static constexpr std::size_t kMaxSlots = 4096;

  void add(NameId id, std::uint64_t delta) noexcept {
    if (id < kMaxSlots && delta != 0)
      slots_[id].fetch_add(delta, std::memory_order_relaxed);
  }
  void set(NameId id, std::uint64_t value) noexcept {
    if (id < kMaxSlots) slots_[id].store(value, std::memory_order_relaxed);
  }
  std::uint64_t value(NameId id) const noexcept {
    return id < kMaxSlots ? slots_[id].load(std::memory_order_relaxed) : 0;
  }

  struct Sample {
    NameId id;
    std::uint64_t value;
  };
  /// Every nonzero slot.
  std::vector<Sample> snapshot() const;

  void clear() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kMaxSlots> slots_{};
};

}  // namespace hacc::obs
