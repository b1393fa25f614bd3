// The process-wide monotonic clock every telemetry timestamp is read from
// (obs::Tracer spans, obs::PhaseScope durations, comm wait times).
#pragma once

#include <cstdint>

namespace hacc::util {

/// Monotonic nanoseconds since a process-wide epoch (steady clock). All
/// ranks of the SimMPI machine share the epoch, so trace timestamps are
/// directly comparable across ranks.
std::uint64_t now_ns() noexcept;

}  // namespace hacc::util
