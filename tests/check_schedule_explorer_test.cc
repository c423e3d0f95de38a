// Schedule exploration: for every seed, concurrent replay through the TM
// must byte-equal serial replay. The default sweep runs 200 seeds (override
// with TXREP_SCHEDULE_SEEDS for quick local runs or deeper soaks).

#include "check/schedule_explorer.h"

#include <cstdlib>

#include "gtest/gtest.h"
#include "test_util.h"

namespace txrep::check {
namespace {

int SeedsFromEnv(int fallback) {
  const char* env = std::getenv("TXREP_SCHEDULE_SEEDS");
  if (env == nullptr) return fallback;
  const int value = std::atoi(env);
  return value > 0 ? value : fallback;
}

TEST(ScheduleExplorerTest, SweepFindsNoDivergence) {
  ScheduleExplorerOptions options;
  options.base_seed = 1;
  options.schedules = SeedsFromEnv(200);
  options.txns_per_schedule = 30;
  options.audit_every = 8;

  ScheduleExplorer explorer(options);
  ScheduleReport report = explorer.Run();
  SCOPED_TRACE(report.Summary());

  EXPECT_EQ(report.schedules_run, options.schedules);
  std::string details;
  for (const ScheduleFailure& failure : report.failures) {
    details +=
        "\n  seed " + std::to_string(failure.seed) + ": " + failure.detail;
  }
  EXPECT_TRUE(report.ok()) << "diverging schedules:" << details;
  // The sweep must actually generate contention — a conflict-free sweep
  // would pass vacuously no matter how broken Algorithm 1 were.
  EXPECT_GT(report.conflicts + report.restarts, 0);
}

TEST(ScheduleExplorerTest, CrashRestartSweepFindsNoDivergence) {
  ScheduleExplorerOptions options;
  options.base_seed = 1;
  options.schedules = SeedsFromEnv(200);
  options.txns_per_schedule = 20;
  options.audit_every = 0;  // The plain sweep above covers the deep audit.
  options.crash_restart = true;
  options.scratch_dir = ::testing::TempDir() + "txrep_crash_sweep";

  ScheduleExplorer explorer(options);
  ScheduleReport report = explorer.Run();
  SCOPED_TRACE(report.Summary());

  EXPECT_EQ(report.schedules_run, options.schedules);
  std::string details;
  for (const ScheduleFailure& failure : report.failures) {
    details +=
        "\n  seed " + std::to_string(failure.seed) + ": " + failure.detail;
  }
  EXPECT_TRUE(report.ok()) << "diverging crash-restart schedules:" << details;
}

TEST(ScheduleExplorerTest, BatchedApplySweepFindsNoDivergence) {
  // Batched-apply mode: the concurrent replica is a seed-derived KvCluster
  // (node count, dispatch threads), so each write set's MultiWrite is split
  // per node and fanned out. Concurrent replay must still byte-equal serial
  // replay on every seed.
  ScheduleExplorerOptions options;
  options.base_seed = 1;
  options.schedules = SeedsFromEnv(200);
  options.txns_per_schedule = 30;
  options.audit_every = 8;
  options.batched_apply = true;

  ScheduleExplorer explorer(options);
  ScheduleReport report = explorer.Run();
  SCOPED_TRACE(report.Summary());

  EXPECT_EQ(report.schedules_run, options.schedules);
  std::string details;
  for (const ScheduleFailure& failure : report.failures) {
    details +=
        "\n  seed " + std::to_string(failure.seed) + ": " + failure.detail;
  }
  EXPECT_TRUE(report.ok()) << "diverging batched schedules:" << details;
  EXPECT_GT(report.conflicts + report.restarts, 0);
}

TEST(ScheduleExplorerTest, BatchedCrashRestartSweepFindsNoDivergence) {
  // Crash + recovery on top of the batched-apply schedule: the crashing TM
  // and the tail replay applier each publish one MultiWrite per write set,
  // and recovery must land byte-identical to serial replay.
  ScheduleExplorerOptions options;
  options.base_seed = 1;
  options.schedules = SeedsFromEnv(200);
  options.txns_per_schedule = 20;
  options.audit_every = 0;
  options.crash_restart = true;
  options.batched_apply = true;
  options.scratch_dir = ::testing::TempDir() + "txrep_batched_crash_sweep";

  ScheduleExplorer explorer(options);
  ScheduleReport report = explorer.Run();
  SCOPED_TRACE(report.Summary());

  EXPECT_EQ(report.schedules_run, options.schedules);
  std::string details;
  for (const ScheduleFailure& failure : report.failures) {
    details +=
        "\n  seed " + std::to_string(failure.seed) + ": " + failure.detail;
  }
  EXPECT_TRUE(report.ok())
      << "diverging batched crash-restart schedules:" << details;
}

TEST(ScheduleExplorerTest, TracedSweepStaysByteIdentical) {
  // Acceptance bar for the tracing tentpole: turning the tracer on (with a
  // seed-derived sampling period) must not perturb replication — concurrent
  // replay still byte-equals serial replay on every seed. The explorer also
  // fails any sampled schedule whose flight recorder stayed empty, so this
  // cannot pass by tracing silently never engaging.
  ScheduleExplorerOptions options;
  options.base_seed = 1;
  options.schedules = SeedsFromEnv(200);
  options.txns_per_schedule = 30;
  options.audit_every = 8;
  options.traced = true;

  ScheduleExplorer explorer(options);
  ScheduleReport report = explorer.Run();
  SCOPED_TRACE(report.Summary());

  EXPECT_EQ(report.schedules_run, options.schedules);
  std::string details;
  for (const ScheduleFailure& failure : report.failures) {
    details +=
        "\n  seed " + std::to_string(failure.seed) + ": " + failure.detail;
  }
  EXPECT_TRUE(report.ok()) << "diverging traced schedules:" << details;
  EXPECT_GT(report.conflicts + report.restarts, 0);
}

TEST(ScheduleExplorerTest, BatchedSeedIsReproducible) {
  ScheduleExplorer explorer({.schedules = 0, .batched_apply = true});
  TXREP_EXPECT_OK(explorer.RunOne(42));
  TXREP_EXPECT_OK(explorer.RunOne(42));
}

TEST(ScheduleExplorerTest, CrashRestartRequiresScratchDir) {
  ScheduleExplorerOptions options;
  options.schedules = 1;
  options.crash_restart = true;  // But no scratch_dir.
  ScheduleExplorer explorer(options);
  EXPECT_TRUE(explorer.RunOne(1).IsInvalidArgument());
}

TEST(ScheduleExplorerTest, BlinkProbesSweepFindsNoDivergence) {
  // With blink_probes mode on, (a) interleaved B-link index probes run full
  // scans over their torn buffered views (byte-equivalence oracle unchanged
  // — so lock-free reads may not perturb replay), and (b) each schedule's
  // scratch-store hammer races readers against one tree writer plus
  // MultiWrite noise. The blink_read_events counter must be nonzero — the
  // readers repairing the writer's splits is part of the contract, not a
  // nice-to-have.
  ScheduleExplorerOptions options;
  options.base_seed = 1;
  options.schedules = SeedsFromEnv(200);
  options.txns_per_schedule = 30;
  options.audit_every = 8;
  options.batched_apply = true;
  options.blink_probes = true;

  ScheduleExplorer explorer(options);
  ScheduleReport report = explorer.Run();
  SCOPED_TRACE(report.Summary());

  EXPECT_EQ(report.schedules_run, options.schedules);
  std::string details;
  for (const ScheduleFailure& failure : report.failures) {
    details +=
        "\n  seed " + std::to_string(failure.seed) + ": " + failure.detail;
  }
  EXPECT_TRUE(report.ok()) << "diverging blink-probe schedules:" << details;
  EXPECT_GT(report.conflicts + report.restarts, 0);
  EXPECT_GT(report.blink_read_events, 0);
}

TEST(ScheduleExplorerTest, SingleSeedIsReproducible) {
  ScheduleExplorer explorer({.base_seed = 0, .schedules = 0});
  TXREP_EXPECT_OK(explorer.RunOne(42));
  TXREP_EXPECT_OK(explorer.RunOne(42));  // No state leaks between runs.
}

TEST(ScheduleExplorerTest, SummaryMentionsAllCounters) {
  ScheduleReport report;
  report.schedules_run = 3;
  report.transactions_replayed = 90;
  report.failures.push_back({7, "boom"});
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("schedules=3"), std::string::npos);
  EXPECT_NE(summary.find("txns=90"), std::string::npos);
  EXPECT_NE(summary.find("failures=1"), std::string::npos);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace txrep::check
