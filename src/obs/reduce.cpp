#include "obs/reduce.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "util/error.h"

namespace hacc::obs {

namespace {

struct WireSample {
  NameId id;
  double value;
};

}  // namespace

std::vector<Reduced> reduce_samples(
    comm::Comm& comm, std::span<const std::pair<NameId, double>> samples,
    int root) {
  std::vector<WireSample> mine;
  mine.reserve(samples.size());
  for (const auto& [id, v] : samples) mine.push_back(WireSample{id, v});

  std::vector<std::size_t> counts;
  const std::vector<WireSample> all = comm.gatherv(
      std::span<const WireSample>(mine), root, &counts);
  if (comm.rank() != root) return {};

  const auto p = static_cast<std::size_t>(comm.size());
  // Merge by name. A rank that lacks a name contributes zero: track how
  // many ranks reported each name and floor min at 0 for the absentees.
  struct Acc {
    double min = 0, max = 0, sum = 0;
    std::size_t reporters = 0;
  };
  std::map<NameId, Acc> merged;
  std::size_t offset = 0;
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < counts[r]; ++i) {
      const WireSample& s = all[offset + i];
      Acc& a = merged[s.id];
      if (a.reporters == 0) {
        a.min = a.max = s.value;
      } else {
        a.min = std::min(a.min, s.value);
        a.max = std::max(a.max, s.value);
      }
      a.sum += s.value;
      ++a.reporters;
    }
    offset += counts[r];
  }

  std::vector<Reduced> out;
  out.reserve(merged.size());
  for (const auto& [id, a] : merged) {
    Reduced r;
    r.name = id;
    r.min = a.reporters < p ? 0.0 : a.min;
    r.max = a.max;
    r.sum = a.sum;
    r.mean = a.sum / static_cast<double>(p);
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const Reduced& a, const Reduced& b) { return a.mean > b.mean; });
  return out;
}

std::vector<Reduced> reduce_counters(comm::Comm& comm,
                                     const Counters& counters, int root) {
  std::vector<std::pair<NameId, double>> samples;
  for (const auto& s : counters.snapshot())
    samples.emplace_back(s.id, static_cast<double>(s.value));
  return reduce_samples(comm, samples, root);
}

void write_merged_trace(comm::Comm& comm, const Tracer& tracer,
                        const std::string& path, int root) {
  const std::string mine = tracer.events_json(comm.rank());
  std::vector<std::size_t> counts;
  const std::vector<char> all = comm.gatherv(
      std::span<const char>(mine.data(), mine.size()), root, &counts);
  if (comm.rank() != root) return;

  std::FILE* f = std::fopen(path.c_str(), "w");
  HACC_CHECK_MSG(f != nullptr, "cannot open trace file " + path);
  std::fputs("[\n", f);
  std::size_t offset = 0;
  bool first = true;
  for (std::size_t r = 0; r < counts.size(); ++r) {
    if (counts[r] > 0) {
      if (!first) std::fputs(",\n", f);
      std::fwrite(all.data() + offset, 1, counts[r], f);
      first = false;
    }
    offset += counts[r];
  }
  std::fputs("\n]\n", f);
  std::fclose(f);
}

}  // namespace hacc::obs
