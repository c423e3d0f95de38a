#ifndef TXREP_BENCH_SUITE_SPANS_H_
#define TXREP_BENCH_SUITE_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace txrep::benchsuite {

/// Steady-clock nanoseconds, on the same epoch as txrep::NowMicros(), so
/// harness stamps and the library's microsecond stamps can be mixed.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NanosToMicros(int64_t nanos) {
  return static_cast<double>(nanos) / 1e3;
}

/// Span ids: the LSN for update transactions, kReadIdBit | read number for
/// read-only transactions, 0 for calls no transaction can be tied to (KV
/// calls, made from the library's own pool threads).
inline constexpr uint64_t kReadIdBit = uint64_t{1} << 63;

/// One timed interval at a layer boundary, in microseconds since the
/// steady-clock epoch. `parent` names the enclosing hop ("" at top level).
struct Span {
  const char* hop = "";
  uint64_t id = 0;
  double start_us = 0;
  double end_us = 0;
  const char* parent = "";

  double duration_us() const { return end_us - start_us; }
};

/// In-memory span store of a traced run; written out once the run ends.
class SpanLog {
 public:
  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Writes `spans` as a JSON array to `path`. False when the file cannot be
/// written.
bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans);

/// A set of samples with exact order statistics.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }

  /// Quantile q in [0, 1], interpolating linearly between the two nearest
  /// order statistics. 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// Span durations grouped by hop name.
std::map<std::string, Samples> DurationsByHop(const std::vector<Span>& spans);

}  // namespace txrep::benchsuite

#endif  // TXREP_BENCH_SUITE_SPANS_H_
