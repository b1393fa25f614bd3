#include "util/timer.h"

#include <algorithm>

namespace hacc {

void TimerRegistry::add(NameId id, double seconds, std::size_t calls) {
  if (id >= entries_.size()) entries_.resize(id + 1);
  Entry& e = entries_[id];
  e.count += calls;
  e.seconds += seconds;
}

double TimerRegistry::total(NameId id) const {
  return id < entries_.size() ? entries_[id].seconds : 0.0;
}

std::size_t TimerRegistry::count(NameId id) const {
  return id < entries_.size() ? entries_[id].count : 0;
}

double TimerRegistry::grand_total() const {
  double t = 0;
  for (const Entry& e : entries_) t += e.seconds;
  return t;
}

std::vector<TimerRegistry::Row> TimerRegistry::report() const {
  // Fraction-of-wall when the "step" root phase exists, else
  // fraction-of-sum (see header).
  const double root = total(kRootPhase);
  const double denom = root > 0 ? root : grand_total();
  std::vector<Row> rows;
  rows.reserve(entries_.size());
  for (std::size_t id = 0; id < entries_.size(); ++id) {
    const Entry& e = entries_[id];
    if (e.count == 0) continue;
    rows.push_back(Row{std::string(name_of(static_cast<NameId>(id))), e.count,
                       e.seconds, denom > 0 ? e.seconds / denom : 0.0});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.seconds > b.seconds; });
  return rows;
}

}  // namespace hacc
