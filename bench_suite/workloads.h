#ifndef TXREP_BENCH_SUITE_WORKLOADS_H_
#define TXREP_BENCH_SUITE_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace txrep::benchsuite {

/// What one benchmark process runs.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  /// Measured time to fill: catch-ups replay episodes until their timed
  /// windows add up to this (at least kMinEpisodes), the live workload
  /// offers load for exactly this long.
  double seconds = 20;
  /// Timing wrappers on; per-layer metrics are computed from the spans.
  bool trace = false;
  /// Multiplies backlog and read-probe sizes (the smoke test runs 0.05).
  double scale = 1.0;
  /// Non-empty: the traced run's spans are written here as JSON.
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;  // Samples the value was computed from.
};

/// A check on the run. Output gates check the program's results (a failure
/// means the replica is wrong); the others check that the measurement is
/// valid (a failure means the numbers do not describe the intended regime,
/// e.g. the generator fell behind its schedule on a contended host).
struct Gate {
  std::string name;
  bool ok = false;
  std::string detail;
  bool output = false;
};

struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Gate> gates;
  std::vector<Metric> end_to_end;
  /// Traced runs only.
  std::vector<Metric> per_layer;
  /// Harness validity figures that are gates, not benchmark metrics.
  std::vector<Metric> validity;
};

/// Runs one workload. A non-OK status means the run could not be set up
/// (unknown workload, a setup step failed); failures during the measured
/// window are reported in the RunReport instead.
Result<RunReport> RunWorkload(const RunArgs& args);

}  // namespace txrep::benchsuite

#endif  // TXREP_BENCH_SUITE_WORKLOADS_H_
