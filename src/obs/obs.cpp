#include "obs/obs.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace hacc::obs {

namespace {
thread_local Tracer* g_tracer = nullptr;
thread_local Counters* g_counters = nullptr;
thread_local CostMap* g_cost = nullptr;
}  // namespace

Tracer* tracer() noexcept { return g_tracer; }
Counters* counters() noexcept { return g_counters; }
CostMap* cost_map() noexcept { return g_cost; }

Binding::Binding(Tracer* tracer, Counters* counters, CostMap* cost_map) noexcept
    : prev_tracer_(g_tracer),
      prev_counters_(g_counters),
      prev_cost_(g_cost) {
  g_tracer = tracer;
  g_counters = counters;
  g_cost = cost_map;
}

Binding::~Binding() {
  g_tracer = prev_tracer_;
  g_counters = prev_counters_;
  g_cost = prev_cost_;
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace hacc::obs
