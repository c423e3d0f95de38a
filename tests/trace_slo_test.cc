// SLO watchdog tests: burn-rate math over the bucketed sliding window,
// window expiry, stall detection via the progress probe (one dump per stall
// episode, re-armed by progress), and the dump sink receiving the flight
// recorder's spans. All tests run with start_thread=false and drive Poll()
// by hand, so timing is controlled by explicit sleeps against tiny windows.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "trace/hop_recorder.h"
#include "trace/slo.h"
#include "trace/tracer.h"

namespace txrep::trace {
namespace {

void SleepMillis(int64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

SloOptions ManualOptions() {
  SloOptions options;
  options.enabled = true;
  options.start_thread = false;
  options.lag_objective_micros = 100;
  options.target_fraction = 0.99;  // Error budget: 1%.
  return options;
}

TEST(TraceSloTest, BurnRateOverWindow) {
  SloWatchdog watchdog(ManualOptions());
  // 95 good, 5 violating -> violation fraction 5%, budget 1% -> burn 5.0.
  for (int i = 0; i < 95; ++i) watchdog.ObserveLag(50);
  for (int i = 0; i < 5; ++i) watchdog.ObserveLag(500);
  watchdog.Poll();
  const SloStatus status = watchdog.Snapshot();
  EXPECT_EQ(status.observations, 100);
  EXPECT_EQ(status.violations, 5);
  EXPECT_EQ(status.window_observations, 100);
  EXPECT_EQ(status.window_violations, 5);
  EXPECT_NEAR(status.burn_rate, 5.0, 1e-9);
  EXPECT_EQ(status.stalls, 0);
  EXPECT_EQ(status.dumps, 0);
  // Report mentions the objective.
  EXPECT_NE(watchdog.Report().find("objective"), std::string::npos);
}

TEST(TraceSloTest, LagAtObjectiveIsNotAViolation) {
  SloWatchdog watchdog(ManualOptions());
  watchdog.ObserveLag(100);  // Exactly the objective: good.
  watchdog.ObserveLag(101);  // One past it: violation.
  const SloStatus status = watchdog.Snapshot();
  EXPECT_EQ(status.observations, 2);
  EXPECT_EQ(status.violations, 1);
}

TEST(TraceSloTest, WindowExpiresOldObservations) {
  SloOptions options = ManualOptions();
  options.window_micros = 80'000;  // 4 buckets x 20ms.
  options.window_buckets = 4;
  SloWatchdog watchdog(options);
  for (int i = 0; i < 10; ++i) watchdog.ObserveLag(500);
  SloStatus status = watchdog.Snapshot();
  EXPECT_EQ(status.window_observations, 10);
  // After the whole window has rotated past, the window is clean but the
  // lifetime counters keep the history.
  SleepMillis(120);
  status = watchdog.Snapshot();
  EXPECT_EQ(status.window_observations, 0);
  EXPECT_EQ(status.window_violations, 0);
  EXPECT_DOUBLE_EQ(status.burn_rate, 0.0);
  EXPECT_EQ(status.observations, 10);
  EXPECT_EQ(status.violations, 10);
}

TEST(TraceSloTest, StallTriggersOneDumpPerEpisode) {
  SloOptions options = ManualOptions();
  options.stall_timeout_micros = 30'000;
  SloWatchdog watchdog(options);

  std::atomic<uint64_t> applied{7};
  std::atomic<int64_t> backlog{5};
  watchdog.SetProgressProbe([&applied, &backlog] {
    SloProbe probe;
    probe.applied_lsn = applied.load();
    probe.backlog = backlog.load();
    return probe;
  });
  std::vector<std::string> reasons;
  watchdog.SetDumpSink(
      [&reasons](const std::string& reason, const std::vector<SpanEvent>&) {
        reasons.push_back(reason);
      });

  // Progress moved once: arms the progress clock.
  watchdog.Poll();
  EXPECT_EQ(watchdog.Snapshot().stalls, 0);

  // No progress past the timeout with a backlog -> exactly one stall+dump,
  // even across repeated polls.
  SleepMillis(50);
  watchdog.Poll();
  watchdog.Poll();
  SloStatus status = watchdog.Snapshot();
  EXPECT_EQ(status.stalls, 1);
  EXPECT_EQ(status.dumps, 1);
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_NE(reasons[0].find("stalled"), std::string::npos);
  EXPECT_NE(reasons[0].find("lsn 7"), std::string::npos);

  // Progress resumes -> the stall re-arms; a second stall dumps again.
  applied.store(8);
  watchdog.Poll();
  SleepMillis(50);
  watchdog.Poll();
  status = watchdog.Snapshot();
  EXPECT_EQ(status.stalls, 2);
  EXPECT_EQ(status.dumps, 2);
}

TEST(TraceSloTest, EmptyBacklogNeverStalls) {
  SloOptions options = ManualOptions();
  options.stall_timeout_micros = 10'000;
  SloWatchdog watchdog(options);
  watchdog.SetProgressProbe([] {
    SloProbe probe;
    probe.applied_lsn = 42;
    probe.backlog = 0;  // Caught up: a quiescent replica is not a stall.
    return probe;
  });
  watchdog.Poll();
  SleepMillis(30);
  watchdog.Poll();
  EXPECT_EQ(watchdog.Snapshot().stalls, 0);
}

TEST(TraceSloTest, DumpSinkReceivesFlightRecorderSpans) {
  TracerOptions tracer_options;
  tracer_options.sample_every = 1;
  Tracer tracer(tracer_options);
  const TraceContext ctx = tracer.Mint(1);
  HopRecorder(/*metrics=*/nullptr, &tracer)
      .RecordHop(obs::Stage::kApply, ctx, 1, 100, 200);

  SloOptions options = ManualOptions();
  options.stall_timeout_micros = 10'000;
  SloWatchdog watchdog(options, /*metrics=*/nullptr, &tracer);
  watchdog.SetProgressProbe([] {
    SloProbe probe;
    probe.applied_lsn = 1;
    probe.backlog = 3;
    return probe;
  });
  std::vector<SpanEvent> dumped;
  watchdog.SetDumpSink(
      [&dumped](const std::string&, const std::vector<SpanEvent>& events) {
        dumped = events;
      });
  watchdog.Poll();  // Arms the progress clock (lsn 0 -> 1 is progress).
  SleepMillis(30);
  watchdog.Poll();
  ASSERT_EQ(watchdog.Snapshot().dumps, 1);
  ASSERT_EQ(dumped.size(), 1u);
  EXPECT_EQ(dumped[0].lsn, 1u);
  EXPECT_EQ(dumped[0].stage, obs::Stage::kApply);
}

TEST(TraceSloTest, BackgroundThreadStartsAndStops) {
  SloOptions options = ManualOptions();
  options.start_thread = true;
  options.poll_interval_micros = 5'000;
  SloWatchdog watchdog(options);
  watchdog.Start();
  for (int i = 0; i < 50; ++i) watchdog.ObserveLag(500);
  SleepMillis(20);  // Let the poller run at least once.
  watchdog.Stop();
  watchdog.Stop();  // Idempotent.
  EXPECT_EQ(watchdog.Snapshot().observations, 50);
}

}  // namespace
}  // namespace txrep::trace
