#include "obs/counters.h"

#include <mutex>
#include <string>

namespace hacc::obs {

namespace {

// The phase timer's slot spelling: phase.<x>.ns and phase.<x>.calls.
constexpr std::string_view kPhasePrefix = "phase.";
constexpr std::string_view kNsSuffix = ".ns";
constexpr std::string_view kCallsSuffix = ".calls";

struct KindTable {
  std::mutex mu;
  std::vector<std::uint8_t> kinds;  // indexed by NameId; default kCounter
};

KindTable& kind_table() {
  static KindTable t;
  return t;
}

NameId intern_with_kind(std::string_view name, CounterKind kind) {
  const NameId id = intern_name(name);
  KindTable& t = kind_table();
  std::lock_guard<std::mutex> lock(t.mu);
  if (id >= t.kinds.size()) t.kinds.resize(id + 1, 0);
  t.kinds[id] = static_cast<std::uint8_t>(kind);
  return id;
}

}  // namespace

NameId counter_id(std::string_view name) {
  return intern_with_kind(name, CounterKind::kCounter);
}

NameId gauge_id(std::string_view name) {
  return intern_with_kind(name, CounterKind::kGauge);
}

NameId histogram_id(std::string_view name) {
  return intern_with_kind(name, CounterKind::kHistogram);
}

CounterKind kind_of(NameId id) {
  KindTable& t = kind_table();
  std::lock_guard<std::mutex> lock(t.mu);
  return id < t.kinds.size() ? static_cast<CounterKind>(t.kinds[id])
                             : CounterKind::kCounter;
}

PhaseIds phase_ids(std::string_view name) {
  const std::string slot = std::string(kPhasePrefix) + std::string(name);
  return PhaseIds{intern_name(name),
                  counter_id(slot + std::string(kNsSuffix)),
                  counter_id(slot + std::string(kCallsSuffix))};
}

PhaseSlot phase_slot(NameId id) {
  const std::string_view name = name_of(id);
  if (!name.starts_with(kPhasePrefix)) return {};
  const std::string_view rest = name.substr(kPhasePrefix.size());
  if (rest.size() > kNsSuffix.size() && rest.ends_with(kNsSuffix))
    return {PhaseSlot::kNs, rest.substr(0, rest.size() - kNsSuffix.size())};
  if (rest.size() > kCallsSuffix.size() && rest.ends_with(kCallsSuffix))
    return {PhaseSlot::kCalls,
            rest.substr(0, rest.size() - kCallsSuffix.size())};
  return {};
}

std::vector<Counters::Sample> Counters::snapshot() const {
  std::vector<Sample> out;
  for (std::size_t id = 0; id < kMaxSlots; ++id) {
    const std::uint64_t v = slots_[id].load(std::memory_order_relaxed);
    if (v != 0) out.push_back(Sample{static_cast<NameId>(id), v});
  }
  return out;
}

void Counters::clear() noexcept {
  for (auto& s : slots_) s.store(0, std::memory_order_relaxed);
}

}  // namespace hacc::obs
