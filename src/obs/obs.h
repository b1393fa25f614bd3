// Thread binding: how instrumented code finds the current rank's tracer
// and counters.
//
// The obs sinks are *owned* by whoever observes (Simulation owns one
// tracer + counter set per rank; tests own their own) and *found* by
// instrumented code through thread-locals: comm::Comm, the FFT, the tree
// kernels, the Poisson solver etc. call obs::add_counter()/TraceScope/
// PhaseScope, which resolve to the sinks bound to the calling thread, or to
// nothing — allocation-free and branch-cheap — when no Binding is live.
// This keeps the comm and solver layers free of any plumbing through
// constructors, and makes every library usable untraced (tests, benches)
// at zero cost.
#pragma once

#include <cstdint>

#include "obs/counters.h"
#include "obs/trace.h"
#include "util/telemetry.h"

namespace hacc::obs {

class CostMap;

/// The calling thread's bound tracer/counters/cost map, or nullptr.
Tracer* tracer() noexcept;
Counters* counters() noexcept;
CostMap* cost_map() noexcept;

/// RAII: binds `tracer`/`counters`/`cost_map` (any may be null) to the
/// calling thread; restores the previous binding on destruction. Bindings
/// nest. Note the binding is per-thread: OpenMP workers spawned inside a
/// bound region do NOT inherit it — kernels that attribute cost capture
/// obs::cost_map() on the rank thread before entering the parallel region.
class Binding {
 public:
  Binding(Tracer* tracer, Counters* counters,
          CostMap* cost_map = nullptr) noexcept;
  ~Binding();
  Binding(const Binding&) = delete;
  Binding& operator=(const Binding&) = delete;

 private:
  Tracer* prev_tracer_;
  Counters* prev_counters_;
  CostMap* prev_cost_;
};

/// Trace-only RAII span through the thread-bound tracer; a no-op (and
/// allocation-free) when none is bound or tracing is disabled.
class TraceScope {
 public:
  explicit TraceScope(NameId name) noexcept
      : t_(tracer()), name_(name), t0_ns_(0) {
    if (t_ != nullptr && t_->enabled())
      t0_ns_ = util::now_ns();
    else
      t_ = nullptr;
  }
  ~TraceScope() {
    if (t_ != nullptr) t_->complete(name_, t0_ns_, util::now_ns() - t0_ns_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* t_;
  NameId name_;
  std::uint64_t t0_ns_;
};

/// The one phase timer. On close it adds the elapsed nanoseconds and one
/// call to the phase's counters (phase.<x>.ns / phase.<x>.calls, see
/// phase_ids) in `sink`, and emits a span named <x> to the thread-bound
/// tracer. The one-argument form times into the thread-bound Counters. A
/// null sink or an unbound/disabled tracer is skipped; never allocates.
class PhaseScope {
 public:
  PhaseScope(Counters* sink, const PhaseIds& ids) noexcept
      : sink_(sink), t_(tracer()), ids_(ids), t0_ns_(util::now_ns()) {}
  explicit PhaseScope(const PhaseIds& ids) noexcept
      : PhaseScope(counters(), ids) {}
  ~PhaseScope() {
    const std::uint64_t dur_ns = util::now_ns() - t0_ns_;
    if (sink_ != nullptr) {
      sink_->add(ids_.ns, dur_ns);
      sink_->add(ids_.calls, 1);
    }
    if (t_ != nullptr) t_->complete(ids_.name, t0_ns_, dur_ns);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Counters* sink_;
  Tracer* t_;
  PhaseIds ids_;
  std::uint64_t t0_ns_;
};

/// Bump a counter / set a gauge on the thread-bound Counters (no-op when
/// none is bound).
inline void add_counter(NameId id, std::uint64_t delta) noexcept {
  if (Counters* c = counters()) c->add(id, delta);
}
inline void set_gauge(NameId id, std::uint64_t value) noexcept {
  if (Counters* c = counters()) c->set(id, value);
}
/// Record an instant event on the thread-bound tracer.
inline void instant(NameId name) {
  if (Tracer* t = tracer()) t->instant(name);
}

/// Peak resident set size of this process in bytes (0 if unavailable).
std::uint64_t peak_rss_bytes();

}  // namespace hacc::obs
