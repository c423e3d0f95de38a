#ifndef TXREP_WORKLOAD_LOADGEN_H_
#define TXREP_WORKLOAD_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "trace/slo.h"
#include "workload/tpcc.h"

namespace txrep::workload {

/// One step of the offered-rate staircase: from `at_micros` (offset from run
/// start) onward, arrivals are generated at `rate_per_sec`.
struct RateStep {
  int64_t at_micros = 0;
  double rate_per_sec = 0.0;
};

struct LoadGenOptions {
  /// Offered arrival rate before the first RateStep kicks in.
  double base_rate_per_sec = 2000.0;

  /// Length of the arrival window. Arrivals stop here; the runner then
  /// drains the backlog.
  int64_t duration_micros = 1'000'000;

  /// Rate staircase (sorted by at_micros; empty = constant base rate).
  /// A flash crowd is one upward step; overload is a step past capacity.
  std::vector<RateStep> rate_steps;

  /// Seed for the inter-arrival stream. Same seed + same knobs => the same
  /// arrival offsets, byte for byte.
  uint64_t seed = 11;

  /// true: Poisson process (exponential inter-arrival times) — bursty, the
  /// open-system model. false: evenly paced arrivals at the offered rate.
  bool poisson = true;

  /// How long Run() waits after the last arrival for the replica to apply
  /// the backlog before giving up.
  int64_t drain_timeout_micros = 10'000'000;

  /// Submission stops (arrivals are counted as shed) while the backlog of
  /// submitted-but-not-applied transactions is at or above this. Keeps a
  /// sustained-overload run from growing the pipeline queues without bound.
  int64_t max_backlog = 100'000;
};

/// Deterministic open-loop arrival schedule: the offsets (µs from run start)
/// at which transactions arrive, fixed entirely by LoadGenOptions. Built
/// up-front so a run's offered load is reproducible and rate steps land at
/// exactly the configured offsets regardless of service rate.
class ArrivalSchedule {
 public:
  explicit ArrivalSchedule(const LoadGenOptions& options);

  /// Arrival offsets in µs from run start, strictly non-decreasing.
  const std::vector<int64_t>& offsets() const { return offsets_; }

  /// Configured offered rate in force at `offset_micros`.
  static double RateAt(const LoadGenOptions& options, int64_t offset_micros);

 private:
  std::vector<int64_t> offsets_;
};

/// Outcome of one open-loop run.
struct LoadReport {
  int64_t arrivals = 0;         // Scheduled arrivals inside the window.
  int64_t submitted = 0;        // Write transactions committed on the DB.
  int64_t shed = 0;             // Arrivals dropped at the backlog cap.
  int64_t submit_failures = 0;  // ExecuteTransaction errors.
  int64_t applied = 0;          // Confirmed applied on the replica.
  int64_t peak_backlog = 0;     // Max submitted-but-not-applied depth.
  bool drained = false;         // Replica caught up within the timeout.
  int64_t drain_micros = 0;     // Time from last arrival to caught-up.
  int64_t wall_micros = 0;      // Full run wall time incl. drain.

  /// Scheduled arrival -> replica applied, per transaction (µs). Includes
  /// the submitter's slip (`sched_slip`), so a stalled generator cannot hide
  /// queueing from the lag (no coordinated omission).
  HistogramSnapshot lag;
  /// Actual submit time minus scheduled arrival offset (µs): how far the
  /// single-threaded submitter slipped behind the open-loop clock.
  HistogramSnapshot sched_slip;

  double offered_rate_per_sec = 0.0;   // arrivals / window.
  double achieved_rate_per_sec = 0.0;  // applied / wall time.

  std::string ToString() const;
};

/// Open-loop load runner: walks an ArrivalSchedule in real time, submitting
/// one write transaction per arrival through the `submit` hook and polling
/// the `applied_lsn` hook for replica progress. Arrival times never wait for
/// service completion — when the replica can't keep up, the backlog (and the
/// measured lag) grows, which is exactly the regime closed-loop benches
/// cannot produce.
///
/// Single-threaded by design: the submitter interleaves pacing, submission
/// and completion polling on one thread, so the generator needs no locks and
/// the hooks are called from one thread only.
class OpenLoopRunner {
 public:
  struct Hooks {
    /// Commits one write transaction on the database; returns its log LSN
    /// (0 = the transaction had no replicated effect).
    std::function<Result<uint64_t>()> submit;

    /// Highest LSN fully applied on the replica.
    std::function<uint64_t()> applied_lsn;
  };

  /// `metrics` and `watchdog` are optional; when set, the runner publishes
  /// txrep_loadgen_* instruments and feeds per-transaction lag into the SLO
  /// watchdog as it confirms applies.
  OpenLoopRunner(LoadGenOptions options, obs::MetricsRegistry* metrics = nullptr,
                 trace::SloWatchdog* watchdog = nullptr);

  /// Runs the schedule to completion (arrival window + drain). Blocking.
  LoadReport Run(const Hooks& hooks);

  const LoadGenOptions& options() const { return options_; }

 private:
  struct Outstanding {
    uint64_t lsn = 0;
    int64_t due_micros = 0;  // Scheduled arrival instant.
  };

  LoadGenOptions options_;
  obs::MetricsRegistry* metrics_ = nullptr;
  trace::SloWatchdog* watchdog_ = nullptr;
};

/// A named TPC-C-lite traffic scenario: workload shape + offered load.
/// The scenario library is the adversarial-traffic vocabulary shared by
/// benches and EXPERIMENTS.md (DESIGN.md §15).
struct LoadScenario {
  std::string name;
  std::string description;
  TpccOptions tpcc;
  LoadGenOptions load;
};

/// Uniform warehouses, steady offered rate at roughly half of a small
/// deployment's capacity.
LoadScenario SteadyScenario();

/// Zipf-skewed warehouse pick (theta 0.9): one hot storefront absorbs most
/// of the traffic, concentrating the district counters' conflict classes.
LoadScenario HotWarehouseScenario();

/// Rate staircase: steady base load, then a 4x step for the middle third of
/// the window, then back — the flash-crowd shape.
LoadScenario FlashCrowdScenario();

/// Offered rate deliberately past apply capacity for the whole window;
/// measures how replica lag and the SLO burn rate grow under sustained
/// overload. `rate_per_sec` should be chosen above measured capacity.
LoadScenario SustainedOverloadScenario(double rate_per_sec);

/// The fixed sweep benches iterate: steady, hot-warehouse, flash-crowd.
std::vector<LoadScenario> StandardScenarios();

}  // namespace txrep::workload

#endif  // TXREP_WORKLOAD_LOADGEN_H_
