// TPC-C-lite schedule exploration: every seed derives a whole TPC-C-lite
// deployment (warehouse count, scale, warehouse Zipf skew, NewOrder/Payment
// mix, remote-line fraction) and the concurrent TM's replay of its log must
// byte-equal serial replay — plain and across a crash-restart. The default
// sweep runs 200 seeds (override with TXREP_SCHEDULE_SEEDS).

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

std::string FailureDetails(const ScheduleReport& report) {
  std::string details;
  for (const ScheduleFailure& failure : report.failures) {
    details +=
        "\n  seed " + std::to_string(failure.seed) + ": " + failure.detail;
  }
  return details;
}

TEST(ScheduleExplorerTpccTest, TpccSweepFindsNoDivergence) {
  ScheduleExplorerOptions options;
  options.base_seed = 1;
  options.schedules = SeedsFromEnv(200);
  options.txns_per_schedule = 25;
  options.audit_every = 8;
  options.tpcc = true;

  ScheduleExplorer explorer(options);
  ScheduleReport report = explorer.Run();
  SCOPED_TRACE(report.Summary());

  EXPECT_EQ(report.schedules_run, options.schedules);
  EXPECT_TRUE(report.ok()) << "diverging TPC-C schedules:"
                           << FailureDetails(report);
  // The contended district counters must actually collide — a conflict-free
  // sweep would pass vacuously no matter how broken Algorithm 1 were.
  EXPECT_GT(report.conflicts + report.restarts, 0);
}

TEST(ScheduleExplorerTpccTest, TpccCrashRestartSweepFindsNoDivergence) {
  ScheduleExplorerOptions options;
  options.base_seed = 1;
  options.schedules = SeedsFromEnv(200);
  options.txns_per_schedule = 15;
  options.audit_every = 0;  // The plain sweep above covers the deep audit.
  options.tpcc = true;
  options.crash_restart = true;
  options.scratch_dir = ::testing::TempDir() + "txrep_tpcc_crash_sweep";

  ScheduleExplorer explorer(options);
  ScheduleReport report = explorer.Run();
  SCOPED_TRACE(report.Summary());

  EXPECT_EQ(report.schedules_run, options.schedules);
  EXPECT_TRUE(report.ok()) << "diverging TPC-C crash-restart schedules:"
                           << FailureDetails(report);
}

TEST(ScheduleExplorerTpccTest, TpccBatchedApplySweepFindsNoDivergence) {
  // Multi-table TPC-C write sets through the coalescing MultiWrite path:
  // seed-derived cluster topology on top of the seed-derived workload shape.
  ScheduleExplorerOptions options;
  options.base_seed = 1;
  options.schedules = SeedsFromEnv(200);
  options.txns_per_schedule = 20;
  options.audit_every = 8;
  options.tpcc = true;
  options.batched_apply = true;

  ScheduleExplorer explorer(options);
  ScheduleReport report = explorer.Run();
  SCOPED_TRACE(report.Summary());

  EXPECT_EQ(report.schedules_run, options.schedules);
  EXPECT_TRUE(report.ok()) << "diverging TPC-C batched schedules:"
                           << FailureDetails(report);
  EXPECT_GT(report.conflicts + report.restarts, 0);
}

TEST(ScheduleExplorerTpccTest, TpccSeedIsReproducible) {
  ScheduleExplorer explorer({.schedules = 0, .tpcc = true});
  TXREP_EXPECT_OK(explorer.RunOne(42));
  TXREP_EXPECT_OK(explorer.RunOne(42));  // No state leaks between runs.
}

}  // namespace
}  // namespace txrep::check
