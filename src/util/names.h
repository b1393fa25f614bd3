// Process-global name interning.
//
// Phase and counter names are hot-path keys: obs::PhaseScope opens and
// closes at sub-cycle frequency and comm counters bump on every message, so
// keys must be integers, not strings. intern_name() maps a string to a
// dense process-wide NameId exactly once; every later lookup of the same
// spelling is a map probe with no allocation, and call sites that care
// cache the id in a static. Ids are never recycled.
//
// On the SimMPI substrate every rank is a thread of one process, so NameIds
// are identical across ranks and may travel over the wire directly (the
// obs reducer relies on this); a real-MPI port would exchange the strings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hacc {

using NameId = std::uint32_t;

/// Intern `name`, returning its process-wide id (allocates only the first
/// time a spelling is seen). Thread-safe.
NameId intern_name(std::string_view name);

/// The spelling of an interned id; the view is valid for the process
/// lifetime. Thread-safe.
std::string_view name_of(NameId id);

/// Number of names interned so far.
std::size_t interned_name_count();

}  // namespace hacc
