#include "spans.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

double SpanLog::total_ns(const std::string& name, std::int32_t rep) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.rep == rep && name == s.name) total += static_cast<double>(s.end_ns - s.start_ns);
  }
  return total;
}

double SpanLog::self_ns(const std::string& name, std::int32_t rep) const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.rep == rep && name == s.name) {
      total += static_cast<double>(s.end_ns - s.start_ns) - covered[i];
    }
  }
  return total;
}

std::size_t SpanLog::count(const std::string& name, std::int32_t rep) const {
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (s.rep == rep && name == s.name) ++n;
  }
  return n;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write span log " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    std::fprintf(f, "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,\"rep\":%d}\n",
                 s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent, s.rep);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write span log " + path);
}

}  // namespace perfbench
