#include "obs/ledger.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "obs/json.h"
#include "util/error.h"
#include "util/table.h"

namespace hacc::obs {

namespace {

double phase_mean(const std::map<std::string, PhaseStat>& phases,
                  const std::string& name) {
  auto it = phases.find(name);
  return it == phases.end() ? 0.0 : it->second.mean;
}

void append_stat(std::string& out, const char* key, const PhaseStat& s) {
  out += '"';
  out += key;
  out += "\":{\"min\":" + json_number(s.min) +
         ",\"mean\":" + json_number(s.mean) +
         ",\"max\":" + json_number(s.max) +
         ",\"imbalance\":" + json_number(s.imbalance) + "}";
}

void append_stat_map(std::string& out, const char* key,
                     const std::map<std::string, PhaseStat>& m) {
  out += '"';
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [name, s] : m) {
    if (!first) out += ',';
    first = false;
    append_stat(out, json_escape(name).c_str(), s);
  }
  out += '}';
}

}  // namespace

std::map<std::string, double> paper_breakdown(
    const std::map<std::string, PhaseStat>& phases, double wall_mean) {
  std::map<std::string, double> b;
  b["kernel"] = phase_mean(phases, "sr-kernel");
  b["walk_build"] = phase_mean(phases, "tree-build");
  b["fft"] = phase_mean(phases, "poisson.fft");
  b["cic"] = phase_mean(phases, "cic") + phase_mean(phases, "lr-kick");
  b["refresh"] = phase_mean(phases, "refresh");
  b["comm"] =
      phase_mean(phases, "grid-exchange") + phase_mean(phases, "poisson.remap");
  double named = 0;
  for (const auto& [k, v] : b) named += v;
  b["other"] = std::max(0.0, wall_mean - named);
  return b;
}

std::string step_record_json(const StepRecord& r) {
  std::string line = "{";
  line += "\"step\":" + std::to_string(r.step);
  line += ",\"a\":" + json_number(r.a);
  line += ",\"z\":" + json_number(r.z);
  line += ',';
  append_stat(line, "wall_s", r.wall);
  line += ",\"t_per_substep_per_particle\":" +
          json_number(r.t_per_substep_per_particle);
  line += ",\"momentum\":[" + json_number(r.momentum[0]) + ',' +
          json_number(r.momentum[1]) + ',' + json_number(r.momentum[2]) + ']';
  line += ",\"momentum_drift\":" + json_number(r.momentum_drift);
  line += ',';
  append_stat_map(line, "phases", r.phases);
  line += ',';
  append_stat_map(line, "counters", r.counters);
  line += ",\"breakdown\":{";
  bool first = true;
  for (const auto& [name, v] : r.breakdown) {
    if (!first) line += ',';
    first = false;
    line += '"' + json_escape(name) + "\":" + json_number(v);
  }
  line += '}';
  line += ",\"peak_rss_bytes\":" + std::to_string(r.peak_rss_bytes);
  line += '}';
  return line;
}

CostMapRecord reduce_cost_map(comm::Comm& comm, const CostMap::Summary& mine,
                              int step, int root) {
  // One POD summary per rank: the leaf-level fields, the straggler argmax
  // (which a min/mean/max reduction cannot recover) and the per-rank
  // kernel time and interaction count.
  struct WireSummary {
    std::uint64_t leaves, interactions, kernel_ns;
    double leaf_imbalance, top_decile_share;
  };
  const WireSummary w{mine.leaves, mine.interactions, mine.kernel_ns,
                      mine.leaf_imbalance, mine.top_decile_share};
  const std::vector<WireSummary> all =
      comm.gatherv(std::span<const WireSummary>(&w, 1), root);

  CostMapRecord rec;
  rec.step = step;
  if (comm.rank() != root) return rec;

  // Per-rank kernel seconds / interactions, min/mean/max with the sum
  // taken in rank order and mean = sum / P, as obs::reduce_samples reduces
  // — rank_kernel_s.imbalance is the cross-rank straggler signal.
  const auto over_ranks = [&](auto value_of) {
    double lo = value_of(all[0]), hi = lo, sum = 0;
    for (const WireSummary& s : all) {
      const double v = value_of(s);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    const double mean = sum / static_cast<double>(all.size());
    return PhaseStat{lo, mean, hi, mean > 0 ? hi / mean : 0.0};
  };
  rec.rank_kernel_s = over_ranks([](const WireSummary& s) {
    return static_cast<double>(s.kernel_ns) / 1e9;
  });
  rec.rank_interactions = over_ranks([](const WireSummary& s) {
    return static_cast<double>(s.interactions);
  });
  std::uint64_t kernel_ns = 0;
  for (std::size_t r = 0; r < all.size(); ++r) {
    rec.leaves += all[r].leaves;
    rec.interactions += all[r].interactions;
    kernel_ns += all[r].kernel_ns;
    rec.leaf_imbalance = std::max(rec.leaf_imbalance, all[r].leaf_imbalance);
    rec.top_decile_share =
        std::max(rec.top_decile_share, all[r].top_decile_share);
    if (all[r].kernel_ns > 0 &&
        (rec.straggler_rank < 0 ||
         all[r].kernel_ns >
             all[static_cast<std::size_t>(rec.straggler_rank)].kernel_ns))
      rec.straggler_rank = static_cast<int>(r);
  }
  rec.kernel_s = static_cast<double>(kernel_ns) / 1e9;
  if (rec.interactions > 0)
    rec.ns_per_interaction = static_cast<double>(kernel_ns) /
                             static_cast<double>(rec.interactions);
  return rec;
}

std::string costmap_record_json(const CostMapRecord& c) {
  std::string line = "{\"costmap\":{";
  line += "\"step\":" + std::to_string(c.step);
  line += ",\"leaves\":" + std::to_string(c.leaves);
  line += ",\"interactions\":" + std::to_string(c.interactions);
  line += ",\"kernel_s\":" + json_number(c.kernel_s);
  line += ',';
  append_stat(line, "rank_kernel_s", c.rank_kernel_s);
  line += ',';
  append_stat(line, "rank_interactions", c.rank_interactions);
  line += ",\"leaf_imbalance\":" + json_number(c.leaf_imbalance);
  line += ",\"top_decile_share\":" + json_number(c.top_decile_share);
  line += ",\"ns_per_interaction\":" + json_number(c.ns_per_interaction);
  line += ",\"straggler_rank\":" + std::to_string(c.straggler_rank);
  line += "}}";
  return line;
}

std::string event_record_json(const EventRecord& e) {
  std::string line = "{\"event\":\"" + json_escape(e.kind) + '"';
  if (e.step >= 0) line += ",\"step\":" + std::to_string(e.step);
  if (e.attempt >= 0) line += ",\"attempt\":" + std::to_string(e.attempt);
  if (!e.detail.empty())
    line += ",\"detail\":\"" + json_escape(e.detail) + '"';
  line += '}';
  return line;
}

Ledger::~Ledger() {
  if (sink_ != nullptr) std::fclose(sink_);
}

void Ledger::stream_to(const std::string& path, bool append) {
  if (sink_ != nullptr) std::fclose(sink_);
  sink_ = std::fopen(path.c_str(), append ? "ab" : "wb");
  HACC_CHECK_MSG(sink_ != nullptr, "cannot open ledger file " + path);
}

void Ledger::stream_line(const std::string& line) {
  if (sink_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), sink_);
  std::fputc('\n', sink_);
  // Flush + fsync per line: the ledger must survive exactly the failures
  // the Supervisor recovers from, so every record is durable before the
  // step that follows it runs.
  std::fflush(sink_);
  ::fsync(fileno(sink_));
}

void Ledger::append(StepRecord record) {
  stream_line(step_record_json(record));
  records_.push_back(std::move(record));
}

void Ledger::append_event(EventRecord event) {
  stream_line(event_record_json(event));
  events_.push_back(std::move(event));
}

void Ledger::append_costmap(CostMapRecord record) {
  stream_line(costmap_record_json(record));
  costmaps_.push_back(record);
}

void Ledger::append_event_to(const std::string& path, const EventRecord& e) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  HACC_CHECK_MSG(f != nullptr, "cannot open ledger file " + path);
  const std::string line = event_record_json(e) + '\n';
  std::fwrite(line.data(), 1, line.size(), f);
  std::fflush(f);
  ::fsync(fileno(f));
  std::fclose(f);
}

std::string Ledger::to_jsonl() const {
  std::string out;
  for (const StepRecord& r : records_) out += step_record_json(r) + '\n';
  return out;
}

void Ledger::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  HACC_CHECK_MSG(f != nullptr, "cannot open ledger file " + path);
  const std::string body = to_jsonl();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

void Ledger::print_phase_table(std::ostream& os) const {
  if (records_.empty()) return;
  // Sum mean seconds per phase over all steps; track worst step imbalance.
  std::map<std::string, std::pair<double, double>> agg;  // name -> {s, imbal}
  double wall = 0;
  for (const StepRecord& r : records_) {
    wall += r.wall.mean;
    for (const auto& [name, s] : r.phases) {
      auto& a = agg[name];
      a.first += s.mean;
      a.second = std::max(a.second, s.imbalance);
    }
  }
  std::vector<std::pair<std::string, std::pair<double, double>>> rows(
      agg.begin(), agg.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.first > b.second.first;
  });

  Table t({"phase", "mean seconds", "% of step wall", "max imbalance"});
  for (const auto& [name, a] : rows) {
    t.add_row({name, Table::fixed(a.first, 4),
               wall > 0 ? Table::fixed(100.0 * a.first / wall, 1) : "0",
               Table::fixed(a.second, 2)});
  }
  os << "Per-phase breakdown over " << records_.size()
     << " steps (mean over ranks; imbalance = max/mean):\n";
  t.print(os);
}

}  // namespace hacc::obs
