#include "spans.h"

#include <cstdio>

namespace perfbench {

int SpanLog::add(std::string name, int parent, std::uint64_t t0,
                 std::uint64_t t1) {
  spans_.push_back(Span{std::move(name), t0, t1, parent});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanLog::open(std::string name, int parent) {
  const std::uint64_t t0 = hacc::util::now_ns();
  return add(std::move(name), parent, t0, t0);
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = hacc::util::now_ns();
}

bool SpanLog::descends_from(int id, int root) const {
  for (int p = spans_[static_cast<std::size_t>(id)].parent; p >= 0;
       p = spans_[static_cast<std::size_t>(p)].parent)
    if (p == root) return true;
  return false;
}

std::map<std::string, double> SpanLog::self_seconds(int root) const {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!descends_from(static_cast<int>(i), root)) continue;
    out[spans_[i].name] += spans_[i].seconds();
    const int parent = spans_[i].parent;
    if (parent != root)
      out[spans_[static_cast<std::size_t>(parent)].name] -= spans_[i].seconds();
  }
  return out;
}

std::map<std::string, double> SpanLog::total_seconds(int root) const {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (descends_from(static_cast<int>(i), root))
      out[spans_[i].name] += spans_[i].seconds();
  return out;
}

double SpanLog::children_seconds(int root) const {
  double sum = 0;
  for (const Span& s : spans_)
    if (s.parent == root) sum += s.seconds();
  return sum;
}

bool write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanLog& log : logs) {
    const auto& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i)
      std::fprintf(f,
                   "{\"id\":%zu,\"rank\":%d,\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"parent\":%d}\n",
                   i, log.rank(), spans[i].name.c_str(),
                   static_cast<unsigned long long>(spans[i].start_ns),
                   static_cast<unsigned long long>(spans[i].end_ns),
                   spans[i].parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
