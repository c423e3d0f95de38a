#include "workload/loadgen.h"

#include <atomic>
#include <map>

#include "common/clock.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "obs/names.h"
#include "test_util.h"

namespace txrep::workload {
namespace {

TEST(ArrivalScheduleTest, DeterministicPerSeed) {
  LoadGenOptions options;
  options.base_rate_per_sec = 5000.0;
  options.duration_micros = 500'000;
  options.seed = 17;
  ArrivalSchedule a(options);
  ArrivalSchedule b(options);
  ASSERT_FALSE(a.offsets().empty());
  EXPECT_EQ(a.offsets(), b.offsets());

  options.seed = 18;
  ArrivalSchedule c(options);
  EXPECT_NE(a.offsets(), c.offsets());
}

TEST(ArrivalScheduleTest, OffsetsAreOrderedAndBounded) {
  LoadGenOptions options;
  options.base_rate_per_sec = 3000.0;
  options.duration_micros = 400'000;
  ArrivalSchedule schedule(options);
  int64_t prev = -1;
  for (const int64_t offset : schedule.offsets()) {
    EXPECT_GT(offset, prev);
    EXPECT_LT(offset, options.duration_micros);
    prev = offset;
  }
  // ~3000/s over 0.4 s => ~1200 arrivals; Poisson spread stays well inside
  // a factor of two at this n.
  EXPECT_GT(schedule.offsets().size(), 900u);
  EXPECT_LT(schedule.offsets().size(), 1500u);
}

TEST(ArrivalScheduleTest, RateStepsLandAtConfiguredOffsets) {
  LoadGenOptions options;
  options.base_rate_per_sec = 1000.0;
  options.duration_micros = 900'000;
  options.rate_steps = {{300'000, 4000.0}, {600'000, 1000.0}};
  options.seed = 23;

  EXPECT_DOUBLE_EQ(ArrivalSchedule::RateAt(options, 0), 1000.0);
  EXPECT_DOUBLE_EQ(ArrivalSchedule::RateAt(options, 299'999), 1000.0);
  EXPECT_DOUBLE_EQ(ArrivalSchedule::RateAt(options, 300'000), 4000.0);
  EXPECT_DOUBLE_EQ(ArrivalSchedule::RateAt(options, 599'999), 4000.0);
  EXPECT_DOUBLE_EQ(ArrivalSchedule::RateAt(options, 600'000), 1000.0);

  ArrivalSchedule schedule(options);
  int64_t before = 0;
  int64_t burst = 0;
  int64_t after = 0;
  for (const int64_t offset : schedule.offsets()) {
    if (offset < 300'000) {
      ++before;
    } else if (offset < 600'000) {
      ++burst;
    } else {
      ++after;
    }
  }
  // The middle third carries ~4x the arrivals of the outer thirds.
  EXPECT_GT(burst, 2 * before);
  EXPECT_GT(burst, 2 * after);
  EXPECT_GT(before, 0);
  EXPECT_GT(after, 0);
}

TEST(ArrivalScheduleTest, EvenPacingWithoutPoisson) {
  LoadGenOptions options;
  options.base_rate_per_sec = 1000.0;  // 1000 µs gaps.
  options.duration_micros = 100'000;
  options.poisson = false;
  ArrivalSchedule schedule(options);
  ASSERT_GT(schedule.offsets().size(), 90u);
  for (size_t i = 1; i < schedule.offsets().size(); ++i) {
    EXPECT_EQ(schedule.offsets()[i] - schedule.offsets()[i - 1], 1001);
  }
}

TEST(ZipfSamplerTest, MatchesExpectedFrequencyRanks) {
  // Rank 0 must be the hottest, frequencies monotonically non-increasing in
  // rank (with slack for sampling noise), and visibly heavier than uniform.
  ZipfGenerator zipf(8, 0.9, 12345);
  std::map<uint64_t, int> counts;
  const int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t v = zipf.Next();
    ASSERT_LT(v, 8u);
    ++counts[v];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[3]);
  EXPECT_GT(counts[3], counts[7]);
  // Uniform would give 12.5% to rank 0; Zipf(0.9) over n=8 gives ~36%.
  EXPECT_GT(static_cast<double>(counts[0]) / kSamples, 0.25);
}

TEST(OpenLoopRunnerTest, RunsScheduleAndDrains) {
  LoadGenOptions options;
  options.base_rate_per_sec = 2000.0;
  options.duration_micros = 100'000;
  options.seed = 31;
  OpenLoopRunner runner(options);

  // Instant service: every submit is applied immediately.
  std::atomic<uint64_t> lsn{0};
  OpenLoopRunner::Hooks hooks;
  hooks.submit = [&]() -> Result<uint64_t> { return ++lsn; };
  hooks.applied_lsn = [&]() -> uint64_t { return lsn.load(); };

  const LoadReport report = runner.Run(hooks);
  const ArrivalSchedule schedule(options);
  EXPECT_EQ(report.arrivals,
            static_cast<int64_t>(schedule.offsets().size()));
  EXPECT_EQ(report.submitted, report.arrivals);
  EXPECT_EQ(report.applied, report.submitted);
  EXPECT_EQ(report.shed, 0);
  EXPECT_EQ(report.submit_failures, 0);
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.lag.count, report.applied);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(OpenLoopRunnerTest, BacklogCapShedsUnderStalledReplica) {
  LoadGenOptions options;
  options.base_rate_per_sec = 5000.0;
  options.duration_micros = 50'000;
  options.seed = 37;
  options.max_backlog = 20;
  options.drain_timeout_micros = 50'000;  // The replica never applies.
  OpenLoopRunner runner(options);

  std::atomic<uint64_t> lsn{0};
  OpenLoopRunner::Hooks hooks;
  hooks.submit = [&]() -> Result<uint64_t> { return ++lsn; };
  hooks.applied_lsn = []() -> uint64_t { return 0; };

  const LoadReport report = runner.Run(hooks);
  EXPECT_EQ(report.peak_backlog, 20);
  EXPECT_GT(report.shed, 0);
  EXPECT_FALSE(report.drained);
  EXPECT_EQ(report.applied, 0);
}

TEST(OpenLoopRunnerTest, LagIncludesSubmitterSlip) {
  // The first submit stalls for 20 ms while ~40 later arrivals come due.
  // Lag runs from each scheduled arrival, so the stall shows up in every
  // one of them; timed from the submit call it would vanish (coordinated
  // omission) and the mean lag would fall below the mean slip.
  LoadGenOptions options;
  options.base_rate_per_sec = 2000.0;
  options.duration_micros = 100'000;
  options.poisson = false;
  OpenLoopRunner runner(options);

  std::atomic<uint64_t> lsn{0};
  OpenLoopRunner::Hooks hooks;
  hooks.submit = [&]() -> Result<uint64_t> {
    if (lsn.load() == 0) SleepForMicros(20'000);
    return ++lsn;
  };
  hooks.applied_lsn = [&]() -> uint64_t { return lsn.load(); };

  const LoadReport report = runner.Run(hooks);
  ASSERT_EQ(report.applied, report.arrivals);
  EXPECT_GT(report.sched_slip.max, 10'000);
  EXPECT_GE(report.lag.mean, report.sched_slip.mean);
}

TEST(OpenLoopRunnerTest, PublishesMetricsAndFeedsWatchdog) {
  LoadGenOptions options;
  options.base_rate_per_sec = 2000.0;
  options.duration_micros = 50'000;
  options.seed = 41;

  obs::MetricsRegistry metrics;
  trace::SloOptions slo_options;
  slo_options.enabled = true;
  slo_options.start_thread = false;
  // Violations fire on lag > objective; -1 makes every observation (lag >= 0)
  // a violation regardless of how fast the instant-service hooks complete.
  slo_options.lag_objective_micros = -1;
  trace::SloWatchdog watchdog(slo_options);
  OpenLoopRunner runner(options, &metrics, &watchdog);

  std::atomic<uint64_t> lsn{0};
  OpenLoopRunner::Hooks hooks;
  hooks.submit = [&]() -> Result<uint64_t> { return ++lsn; };
  hooks.applied_lsn = [&]() -> uint64_t { return lsn.load(); };
  const LoadReport report = runner.Run(hooks);
  ASSERT_GT(report.applied, 0);

  EXPECT_EQ(metrics.GetCounter(obs::kLoadgenArrivals)->Value(),
            report.arrivals);
  EXPECT_EQ(metrics.GetHistogram(obs::kLoadgenLag)->count(), report.applied);
  const trace::SloStatus status = watchdog.Snapshot();
  EXPECT_EQ(status.observations, report.applied);
  EXPECT_EQ(status.violations, report.applied);
}

TEST(ScenarioLibraryTest, ScenariosAreWellFormed) {
  const std::vector<LoadScenario> scenarios = StandardScenarios();
  ASSERT_EQ(scenarios.size(), 3u);
  for (const LoadScenario& s : scenarios) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_GT(s.load.base_rate_per_sec, 0.0);
    EXPECT_GT(s.load.duration_micros, 0);
  }
  EXPECT_GT(HotWarehouseScenario().tpcc.warehouse_zipf_theta, 0.5);
  EXPECT_FALSE(FlashCrowdScenario().load.rate_steps.empty());
  EXPECT_DOUBLE_EQ(SustainedOverloadScenario(9000.0).load.base_rate_per_sec,
                   9000.0);
}

}  // namespace
}  // namespace txrep::workload
