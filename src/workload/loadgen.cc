#include "workload/loadgen.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>
#include <utility>

#include "common/clock.h"
#include "obs/names.h"

namespace txrep::workload {

double ArrivalSchedule::RateAt(const LoadGenOptions& options,
                               int64_t offset_micros) {
  double rate = options.base_rate_per_sec;
  for (const RateStep& step : options.rate_steps) {
    if (step.at_micros > offset_micros) break;
    rate = step.rate_per_sec;
  }
  return rate;
}

ArrivalSchedule::ArrivalSchedule(const LoadGenOptions& options) {
  Random rng(options.seed);
  int64_t t = 0;
  while (t < options.duration_micros) {
    const double rate = RateAt(options, t);
    if (rate <= 0.0) {
      // Dead air: jump to the next step that turns traffic back on.
      int64_t next = options.duration_micros;
      for (const RateStep& step : options.rate_steps) {
        if (step.at_micros > t && step.rate_per_sec > 0.0) {
          next = step.at_micros;
          break;
        }
      }
      t = next;
      continue;
    }
    const double mean_gap_micros = 1e6 / rate;
    double gap = mean_gap_micros;
    if (options.poisson) {
      // Inverse-CDF exponential. 1 - NextDouble() is in (0, 1], so the log
      // argument never hits zero.
      gap = -std::log(1.0 - rng.NextDouble()) * mean_gap_micros;
    }
    t += static_cast<int64_t>(gap) + 1;  // +1 keeps offsets advancing.
    if (t >= options.duration_micros) break;
    offsets_.push_back(t);
  }
}

std::string LoadReport::ToString() const {
  std::ostringstream os;
  os << "arrivals=" << arrivals << " submitted=" << submitted
     << " shed=" << shed << " submit_failures=" << submit_failures
     << " applied=" << applied << " peak_backlog=" << peak_backlog
     << " drained=" << (drained ? "yes" : "no")
     << " drain_ms=" << drain_micros / 1000
     << " offered/s=" << static_cast<int64_t>(offered_rate_per_sec)
     << " achieved/s=" << static_cast<int64_t>(achieved_rate_per_sec)
     << " lag_p50_us=" << static_cast<int64_t>(lag.p50)
     << " lag_p99_us=" << static_cast<int64_t>(lag.p99)
     << " lag_max_us=" << lag.max
     << " slip_p99_us=" << static_cast<int64_t>(sched_slip.p99);
  return os.str();
}

OpenLoopRunner::OpenLoopRunner(LoadGenOptions options,
                               obs::MetricsRegistry* metrics,
                               trace::SloWatchdog* watchdog)
    : options_(std::move(options)), metrics_(metrics), watchdog_(watchdog) {}

LoadReport OpenLoopRunner::Run(const Hooks& hooks) {
  const ArrivalSchedule schedule(options_);
  LoadReport report;

  obs::Counter* c_arrivals =
      metrics_ ? metrics_->GetCounter(obs::kLoadgenArrivals) : nullptr;
  obs::Counter* c_shed =
      metrics_ ? metrics_->GetCounter(obs::kLoadgenShed) : nullptr;
  obs::Counter* c_failures =
      metrics_ ? metrics_->GetCounter(obs::kLoadgenSubmitFailures) : nullptr;
  Histogram* h_lag =
      metrics_ ? metrics_->GetHistogram(obs::kLoadgenLag) : nullptr;
  Histogram* h_slip =
      metrics_ ? metrics_->GetHistogram(obs::kLoadgenSchedSlip) : nullptr;
  obs::Gauge* g_backlog =
      metrics_ ? metrics_->GetGauge(obs::kLoadgenBacklog) : nullptr;

  Histogram lag_hist;
  Histogram slip_hist;
  std::deque<Outstanding> outstanding;

  const int64_t start = NowMicros();
  auto poll_completions = [&]() {
    if (outstanding.empty()) return;
    const uint64_t applied = hooks.applied_lsn();
    const int64_t now = NowMicros();
    while (!outstanding.empty() && outstanding.front().lsn <= applied) {
      // From the scheduled arrival, not the submit: a submitter that slipped
      // behind its schedule must not hide that wait from the lag.
      const int64_t lag = now - outstanding.front().due_micros;
      lag_hist.Record(lag);
      if (h_lag != nullptr) h_lag->Record(lag);
      if (watchdog_ != nullptr) watchdog_->ObserveLag(lag);
      ++report.applied;
      outstanding.pop_front();
    }
    if (g_backlog != nullptr) {
      g_backlog->Set(static_cast<int64_t>(outstanding.size()));
    }
  };

  for (const int64_t offset : schedule.offsets()) {
    // Open loop: pace to the scheduled arrival, polling completions while
    // waiting — never waiting on them.
    const int64_t due = start + offset;
    while (true) {
      const int64_t now = NowMicros();
      if (now >= due) break;
      poll_completions();
      SleepForMicros(std::min<int64_t>(200, due - NowMicros()));
    }
    ++report.arrivals;
    if (c_arrivals != nullptr) c_arrivals->Increment();

    if (static_cast<int64_t>(outstanding.size()) >= options_.max_backlog) {
      ++report.shed;
      if (c_shed != nullptr) c_shed->Increment();
      continue;
    }
    const int64_t submit_time = NowMicros();
    const int64_t slip = submit_time - due;
    slip_hist.Record(slip);
    if (h_slip != nullptr) h_slip->Record(slip);

    Result<uint64_t> lsn = hooks.submit();
    if (!lsn.ok()) {
      ++report.submit_failures;
      if (c_failures != nullptr) c_failures->Increment();
      continue;
    }
    ++report.submitted;
    if (*lsn > 0) {
      outstanding.push_back(Outstanding{*lsn, due});
    }
    report.peak_backlog = std::max(
        report.peak_backlog, static_cast<int64_t>(outstanding.size()));
    poll_completions();
  }

  // Drain: the window is over; give the replica drain_timeout to absorb the
  // backlog. Under sustained overload this is where the debt is visible.
  const int64_t drain_start = NowMicros();
  while (!outstanding.empty() &&
         NowMicros() - drain_start < options_.drain_timeout_micros) {
    poll_completions();
    if (outstanding.empty()) break;
    SleepForMicros(200);
  }
  poll_completions();
  const int64_t end = NowMicros();

  report.drained = outstanding.empty();
  report.drain_micros = end - drain_start;
  report.wall_micros = end - start;
  report.lag = lag_hist.Snapshot();
  report.sched_slip = slip_hist.Snapshot();
  if (options_.duration_micros > 0) {
    report.offered_rate_per_sec = static_cast<double>(report.arrivals) * 1e6 /
                                  static_cast<double>(options_.duration_micros);
  }
  if (report.wall_micros > 0) {
    report.achieved_rate_per_sec = static_cast<double>(report.applied) * 1e6 /
                                   static_cast<double>(report.wall_micros);
  }
  return report;
}

LoadScenario SteadyScenario() {
  LoadScenario s;
  s.name = "steady";
  s.description = "uniform warehouses, constant offered rate";
  s.tpcc.seed = 101;
  s.load.seed = 102;
  s.load.base_rate_per_sec = 2000.0;
  s.load.duration_micros = 1'000'000;
  return s;
}

LoadScenario HotWarehouseScenario() {
  LoadScenario s;
  s.name = "hot_warehouse";
  s.description =
      "Zipf(0.9) warehouse skew: one hot storefront concentrates the "
      "district-counter conflict classes";
  s.tpcc.seed = 201;
  s.tpcc.scale.warehouses = 4;
  s.tpcc.warehouse_zipf_theta = 0.9;
  s.load.seed = 202;
  s.load.base_rate_per_sec = 2000.0;
  s.load.duration_micros = 1'000'000;
  return s;
}

LoadScenario FlashCrowdScenario() {
  LoadScenario s;
  s.name = "flash_crowd";
  s.description = "4x rate step for the middle third of the window";
  s.tpcc.seed = 301;
  s.load.seed = 302;
  s.load.base_rate_per_sec = 1000.0;
  s.load.duration_micros = 1'500'000;
  s.load.rate_steps = {{500'000, 4000.0}, {1'000'000, 1000.0}};
  return s;
}

LoadScenario SustainedOverloadScenario(double rate_per_sec) {
  LoadScenario s;
  s.name = "sustained_overload";
  s.description =
      "offered rate held past apply capacity for the whole window; lag and "
      "SLO burn measure the growing debt";
  s.tpcc.seed = 401;
  s.load.seed = 402;
  s.load.base_rate_per_sec = rate_per_sec;
  s.load.duration_micros = 2'000'000;
  s.load.drain_timeout_micros = 30'000'000;
  return s;
}

std::vector<LoadScenario> StandardScenarios() {
  return {SteadyScenario(), HotWarehouseScenario(), FlashCrowdScenario()};
}

}  // namespace txrep::workload
