#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>

namespace hacc::obs {

void Histogram::record(std::uint64_t ns) noexcept {
  std::size_t b = ns == 0 ? 0 : static_cast<std::size_t>(std::bit_width(ns)) - 1;
  if (b >= kBuckets) b = kBuckets - 1;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t Histogram::quantile_ns(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen > target) return bucket_upper_ns(b);
  }
  return bucket_upper_ns(kBuckets - 1);
}

double Histogram::mean_ns() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0
               : static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) /
                     static_cast<double>(n);
}

void Histogram::clear() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
}

std::vector<NameId> HistogramSet::nonempty() const {
  std::vector<NameId> out;
  for (std::size_t id = 0; id < slots_.size(); ++id)
    if (slots_[id].count() != 0) out.push_back(static_cast<NameId>(id));
  return out;
}

void HistogramSet::clear() noexcept {
  for (auto& h : slots_) h.clear();
}

namespace {

// Sanitize an interned name into a Prometheus metric-name fragment:
// every char outside [a-zA-Z0-9_] becomes '_'.
std::string sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

struct Series {
  std::string labels;  // rendered {k="v",...}
  std::string value;
};

struct Family {
  std::string type;  // "counter" | "gauge" | "histogram"
  std::vector<Series> series;
};

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

// Scalar slot -> (family name, labels, value, type). Encodes the naming
// conventions documented in metrics.h / DESIGN.md §4j. `rank_label` is the
// prebuilt source label set (rank="N", optionally preceded by run="...").
void add_scalar(std::map<std::string, Family>& families,
                const std::string& rank_label, NameId id, std::uint64_t raw) {
  const std::string_view name = name_of(id);
  const CounterKind kind = kind_of(id);

  // phase.<X>.ns -> one hacc_phase_ns_total family with the phase as a
  // label, so dashboards can sum/stack phases without knowing the taxonomy
  // in advance. The phase's call count stays out of the exposition.
  const PhaseSlot slot = phase_slot(id);
  if (slot.kind == PhaseSlot::kCalls) return;
  if (slot.kind == PhaseSlot::kNs) {
    Family& fam = families["hacc_phase_ns_total"];
    fam.type = "counter";
    fam.series.push_back(Series{
        "{phase=\"" + std::string(slot.phase) + "\"," + rank_label + "}",
        fmt_u64(raw)});
    return;
  }

  // <base>_micro gauges carry a fixed-point fractional value in a uint64
  // slot; export the real value under the bare name.
  constexpr std::string_view kMicroSuffix = "_micro";
  if (kind == CounterKind::kGauge && name.size() > kMicroSuffix.size() &&
      name.substr(name.size() - kMicroSuffix.size()) == kMicroSuffix) {
    const std::string base =
        sanitize(name.substr(0, name.size() - kMicroSuffix.size()));
    Family& fam = families["hacc_" + base];
    fam.type = "gauge";
    fam.series.push_back(
        Series{"{" + rank_label + "}", fmt_double(static_cast<double>(raw) / 1e6)});
    return;
  }

  if (kind == CounterKind::kGauge) {
    Family& fam = families["hacc_" + sanitize(name)];
    fam.type = "gauge";
    fam.series.push_back(Series{"{" + rank_label + "}", fmt_u64(raw)});
    return;
  }

  Family& fam = families["hacc_" + sanitize(name) + "_total"];
  fam.type = "counter";
  fam.series.push_back(Series{"{" + rank_label + "}", fmt_u64(raw)});
}

void add_histogram(std::map<std::string, Family>& families,
                   const std::string& rank_label, NameId id,
                   const Histogram& h) {
  const std::string base = "hacc_" + sanitize(name_of(id));
  Family& fam = families[base];
  fam.type = "histogram";

  // Cumulative buckets up to the highest nonzero one, then +Inf.
  std::size_t top = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b)
    if (h.bucket_count(b) != 0) top = b;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b <= top; ++b) {
    cum += h.bucket_count(b);
    fam.series.push_back(Series{
        "_bucket{" + rank_label + ",le=\"" + fmt_u64(Histogram::bucket_upper_ns(b)) +
            "\"}",
        fmt_u64(cum)});
  }
  const std::uint64_t total = h.count();
  fam.series.push_back(
      Series{"_bucket{" + rank_label + ",le=\"+Inf\"}", fmt_u64(total)});
  fam.series.push_back(Series{"_sum{" + rank_label + "}", fmt_u64(h.sum_ns())});
  fam.series.push_back(Series{"_count{" + rank_label + "}", fmt_u64(total)});
}

}  // namespace

std::string export_prometheus(std::span<const MetricsSource> sources) {
  std::map<std::string, Family> families;
  for (const MetricsSource& src : sources) {
    std::string labels;
    if (!src.run.empty()) labels = "run=\"" + src.run + "\",";
    labels += "rank=\"" + fmt_u64(static_cast<std::uint64_t>(src.rank)) + "\"";
    if (src.counters != nullptr) {
      for (const Counters::Sample& s : src.counters->snapshot()) {
        if (kind_of(s.id) == CounterKind::kHistogram) continue;  // wrong sink
        add_scalar(families, labels, s.id, s.value);
      }
    }
    if (src.histograms != nullptr) {
      for (NameId id : src.histograms->nonempty()) {
        const Histogram* h = src.histograms->find(id);
        if (h != nullptr) add_histogram(families, labels, id, *h);
      }
    }
  }

  std::string out;
  for (const auto& [name, fam] : families) {
    out += "# TYPE " + name + " " + fam.type + "\n";
    // Histogram series labels embed their _bucket/_sum/_count suffix.
    for (const Series& s : fam.series) out += name + s.labels + " " + s.value + "\n";
  }
  return out;
}

int MetricsHub::add(const MetricsSource& source) {
  std::lock_guard<std::mutex> lock(mu_);
  const int handle = next_handle_++;
  sources_.emplace_back(handle, source);
  return handle;
}

void MetricsHub::remove(int handle) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(sources_, [handle](const auto& e) { return e.first == handle; });
}

std::size_t MetricsHub::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sources_.size();
}

std::string MetricsHub::render() const {
  // Held through the export: a source's sinks are only guaranteed alive
  // until its remove() returns, so remove() must wait for a render that is
  // still reading them.
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricsSource> sources;
  sources.reserve(sources_.size());
  for (const auto& [handle, src] : sources_) sources.push_back(src);
  return export_prometheus(sources);
}

}  // namespace hacc::obs
