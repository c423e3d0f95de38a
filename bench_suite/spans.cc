#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace txrep::benchsuite {

bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"hop\":\"%s\",\"id\":%llu,\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":\"%s\"}%s\n",
                 s.hop, static_cast<unsigned long long>(s.id), s.start_us,
                 s.end_us, s.parent, i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::map<std::string, Samples> DurationsByHop(const std::vector<Span>& spans) {
  std::map<std::string, Samples> out;
  for (const Span& s : spans) out[s.hop].Add(s.duration_us());
  return out;
}

}  // namespace txrep::benchsuite
