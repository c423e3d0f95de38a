// Integration test for the observability tentpole: drive a full TxRep
// deployment, then assert that every hop of Fig. 3 left latency samples in
// the registry and that the hops tile the replica lag, that the queue gauges
// and per-node KV counters exist, and that TransactionManager::stats()
// agrees exactly with the registry-backed counters it is derived from.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/names.h"
#include "sql/interpreter.h"
#include "test_util.h"
#include "txrep/system.h"

namespace txrep {
namespace {

using obs::HistogramPoint;
using obs::Labels;
using obs::MetricPoint;
using obs::MetricsSnapshot;

constexpr const char* kSchemaSql = R"sql(
  CREATE TABLE ITEM (I_ID INT PRIMARY KEY, I_TITLE VARCHAR(40),
                     I_COST DOUBLE);
  CREATE INDEX ON ITEM (I_TITLE);
  CREATE RANGE INDEX ON ITEM (I_COST);
)sql";

const HistogramPoint* FindHistogram(const MetricsSnapshot& snapshot,
                                    const std::string& name,
                                    const Labels& labels) {
  for (const HistogramPoint& h : snapshot.histograms) {
    if (h.name == name && h.labels == labels) return &h;
  }
  return nullptr;
}

const MetricPoint* FindCounter(const MetricsSnapshot& snapshot,
                               const std::string& name,
                               const Labels& labels = {}) {
  for (const MetricPoint& c : snapshot.counters) {
    if (c.name == name && c.labels == labels) return &c;
  }
  return nullptr;
}

const MetricPoint* FindGauge(const MetricsSnapshot& snapshot,
                             const std::string& name, const Labels& labels) {
  for (const MetricPoint& g : snapshot.gauges) {
    if (g.name == name && g.labels == labels) return &g;
  }
  return nullptr;
}

const HistogramPoint* FindStage(const MetricsSnapshot& snapshot,
                                obs::Stage stage) {
  return FindHistogram(snapshot, obs::kStageLatency,
                       {{"stage", obs::StageName(stage)}});
}

int64_t StageCount(const MetricsSnapshot& snapshot, obs::Stage stage) {
  const HistogramPoint* h = FindStage(snapshot, stage);
  return h == nullptr ? -1 : h->snapshot.count;
}

constexpr obs::Stage kAllStages[] = {
    obs::Stage::kPublish,    obs::Stage::kBroker, obs::Stage::kRecv,
    obs::Stage::kCommitEval, obs::Stage::kApply,  obs::Stage::kE2e};

void RunWriteWorkload(TxRepSystem& sys, int inserts) {
  for (int i = 1; i <= inserts; ++i) {
    TXREP_ASSERT_OK(
        sql::ExecuteSql(sys.database(),
                        "INSERT INTO ITEM VALUES (" + std::to_string(i) +
                            ", 't" + std::to_string(i % 3) + "', " +
                            std::to_string(i * 2.0) + ");")
            .status());
  }
  TXREP_ASSERT_OK(
      sql::ExecuteSql(sys.database(),
                      "UPDATE ITEM SET I_COST = 999.0 WHERE I_ID = 1;"
                      "DELETE FROM ITEM WHERE I_ID = 2;")
          .status());
}

TEST(ObsPipelineTest, ConcurrentPipelineRecordsEveryStage) {
  TxRepOptions options;
  options.cluster.num_nodes = 3;
  TxRepSystem sys(options);
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  TXREP_ASSERT_OK(sys.Start());
  RunWriteWorkload(sys, 15);
  TXREP_ASSERT_OK(sys.SyncToLatest());

  // One replica read so the read path instruments have samples too.
  auto rows = sys.QueryReplica(rel::SelectStatement{
      "ITEM",
      {},
      {rel::Predicate{"I_ID", rel::PredicateOp::kEq, rel::Value::Int(1)}}});
  TXREP_ASSERT_OK(rows.status());

  const MetricsSnapshot snapshot = sys.metrics().Snapshot();

  // Every Fig. 3 hop left one sample per replicated transaction; each
  // (re-)execution inside commit_eval is timed by the TM.
  for (obs::Stage stage : kAllStages) {
    EXPECT_EQ(StageCount(snapshot, stage), 17)
        << "stage " << obs::StageName(stage);
  }
  const HistogramPoint* execute =
      FindHistogram(snapshot, obs::kTmExecuteLatency, {});
  ASSERT_NE(execute, nullptr);
  EXPECT_GE(execute->snapshot.count, 17);

  // Queue-depth gauges exist for every backlog in the pipeline; after a full
  // drain they must read as empty or better-than-empty never negative.
  for (const char* queue :
       {obs::kQueueCommitReqPq, obs::kQueueBroker, obs::kQueueTmTop,
        obs::kQueueTmBottom}) {
    const MetricPoint* g =
        FindGauge(snapshot, obs::kQueueDepth, {{"queue", queue}});
    ASSERT_NE(g, nullptr) << "queue " << queue;
    EXPECT_GE(g->value, 0) << "queue " << queue;
  }

  // Per-node KV op counters: every node served at least one put (snapshot
  // load + replication both write through the cluster).
  int64_t total_puts = 0;
  for (int node = 0; node < options.cluster.num_nodes; ++node) {
    const MetricPoint* c = FindCounter(
        snapshot, obs::kKvOps,
        {{"node", std::to_string(node)}, {"op", "put"}});
    ASSERT_NE(c, nullptr) << "node " << node;
    total_puts += c->value;
  }
  EXPECT_GT(total_puts, 0);

  // Database-side instruments saw the write workload.
  const MetricPoint* commits = FindCounter(snapshot, obs::kDbCommits);
  ASSERT_NE(commits, nullptr);
  EXPECT_EQ(commits->value, 17);  // Schema DDL does not commit via the log.
  const MetricPoint* published =
      FindCounter(snapshot, obs::kMwMessagesPublished);
  const MetricPoint* delivered =
      FindCounter(snapshot, obs::kMwMessagesDelivered);
  ASSERT_NE(published, nullptr);
  ASSERT_NE(delivered, nullptr);
  EXPECT_GT(published->value, 0);
  EXPECT_EQ(published->value, delivered->value);

  // Replica read path.
  const HistogramPoint* readonly =
      FindHistogram(snapshot, obs::kReadOnlyLatency, {});
  ASSERT_NE(readonly, nullptr);
  EXPECT_GE(readonly->snapshot.count, 1);
  const MetricPoint* pk_selects =
      FindCounter(snapshot, obs::kQtSelects, {{"plan", "pk"}});
  ASSERT_NE(pk_selects, nullptr);
  EXPECT_GE(pk_selects->value, 1);
}

TEST(ObsPipelineTest, TmStatsMatchesRegistryCounters) {
  TxRepOptions options;
  TxRepSystem sys(options);
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  TXREP_ASSERT_OK(sys.Start());
  RunWriteWorkload(sys, 10);
  TXREP_ASSERT_OK(sys.SyncToLatest());

  const core::TmStats stats = sys.tm_stats();
  const MetricsSnapshot snapshot = sys.metrics().Snapshot();
  const auto counter = [&snapshot](const char* name) {
    const MetricPoint* c = FindCounter(snapshot, name);
    return c == nullptr ? int64_t{-1} : c->value;
  };
  EXPECT_EQ(stats.submitted, counter(obs::kTmSubmitted));
  EXPECT_EQ(stats.committed, counter(obs::kTmCommitted));
  EXPECT_EQ(stats.completed, counter(obs::kTmCompleted));
  EXPECT_EQ(stats.conflicts, counter(obs::kTmConflicts));
  EXPECT_EQ(stats.restarts, counter(obs::kTmRestarts));
  EXPECT_GT(stats.submitted, 0);
  EXPECT_EQ(stats.submitted, stats.completed);
}

TEST(ObsPipelineTest, SerialBaselineRecordsApplyAndLagStages) {
  TxRepOptions options;
  options.concurrent_replication = false;
  TxRepSystem sys(options);
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  TXREP_ASSERT_OK(sys.Start());
  RunWriteWorkload(sys, 10);
  TXREP_ASSERT_OK(sys.SyncToLatest());

  const MetricsSnapshot snapshot = sys.metrics().Snapshot();
  // The serial applier still reports the replica-side hops, and the
  // middleware hops are applier-independent.
  for (obs::Stage stage : {obs::Stage::kPublish, obs::Stage::kBroker,
                           obs::Stage::kRecv, obs::Stage::kApply,
                           obs::Stage::kE2e}) {
    EXPECT_EQ(StageCount(snapshot, stage), 12)
        << "stage " << obs::StageName(stage);
  }
  // No TM in this configuration, so no commit-eval or execute samples.
  EXPECT_LE(StageCount(snapshot, obs::Stage::kCommitEval), 0);
  EXPECT_EQ(FindHistogram(snapshot, obs::kTmExecuteLatency, {}), nullptr);
}

TEST(ObsPipelineTest, UntracedHopsTileTheReplicaLag) {
  // No tracing, and a KV node slow enough (ms per op) that execution and
  // the bottom-pool wait dominate the lag: a hop that left either out
  // would miss most of it.
  TxRepOptions options;
  options.cluster.num_nodes = 1;
  options.cluster.node.service_time_micros = 1000;
  options.cluster.node.service_slots = 2;
  options.tm.top_threads = 4;
  options.tm.bottom_threads = 2;
  TxRepSystem sys(options);
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  TXREP_ASSERT_OK(sys.Start());
  RunWriteWorkload(sys, 15);
  TXREP_ASSERT_OK(sys.SyncToLatest());
  ASSERT_EQ(sys.tracer(), nullptr);

  const MetricsSnapshot snapshot = sys.metrics().Snapshot();
  const int64_t replicated = sys.tm_stats().completed;
  ASSERT_EQ(replicated, 17);
  int64_t hop_sum = 0;
  for (obs::Stage stage : kAllStages) {
    const HistogramPoint* h = FindStage(snapshot, stage);
    ASSERT_NE(h, nullptr) << "stage " << obs::StageName(stage);
    EXPECT_EQ(h->snapshot.count, replicated)
        << "stage " << obs::StageName(stage);
    if (stage != obs::Stage::kE2e) hop_sum += h->snapshot.sum;
  }
  const int64_t e2e_sum = FindStage(snapshot, obs::Stage::kE2e)->snapshot.sum;
  ASSERT_GT(e2e_sum, 0);
  const double ratio =
      static_cast<double>(hop_sum) / static_cast<double>(e2e_sum);
  EXPECT_GT(ratio, 0.95) << hop_sum << " of " << e2e_sum;
  EXPECT_LT(ratio, 1.05) << hop_sum << " of " << e2e_sum;
}

TEST(ObsPipelineTest, PeriodicReporterWiredThroughOptions) {
  std::atomic<int> reports{0};
  TxRepOptions options;
  options.metrics_report_interval_micros = 1000;
  options.metrics_report_sink = [&reports](const obs::MetricsSnapshot&) {
    reports.fetch_add(1);
  };
  TxRepSystem sys(options);
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  TXREP_ASSERT_OK(sys.Start());
  RunWriteWorkload(sys, 5);
  TXREP_ASSERT_OK(sys.SyncToLatest());
  while (reports.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SUCCEED();
}

}  // namespace
}  // namespace txrep
