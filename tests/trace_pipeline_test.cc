// End-to-end tracing test (the issue's acceptance bar): drive a TPC-W-lite
// write workload through a full TxRep deployment with tracing on and assert
// that (a) sampled transactions leave complete traces whose per-hop spans sum
// to the observed end-to-end lag within 5% in aggregate, (b) critical-path
// attribution names a real dominant hop, (c) the Chrome trace export is
// structurally valid JSON, (d) sampling is deterministic in the LSN, and
// (e) tracing leaves replica consistency untouched.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/names.h"
#include "test_util.h"
#include "trace/export.h"
#include "txrep/system.h"
#include "workload/tpcw.h"

namespace txrep {
namespace {

using trace::SpanEvent;
using trace::TraceSummary;

struct TracedRun {
  std::unique_ptr<TxRepSystem> sys;
  std::unique_ptr<workload::TpcwWorkload> workload;
  int writes = 0;
};

// Populates a small TPC-W-lite deployment and runs `writes` write
// interactions through the pipeline. The workload rides AFTER Start(), so
// every transaction flows publisher -> broker -> subscriber -> applier.
TracedRun RunTracedWorkload(uint64_t sample_every, bool concurrent,
                            int writes = 60, bool slo = false) {
  TracedRun run;
  TxRepOptions options;
  options.concurrent_replication = concurrent;
  options.trace.sample_every = sample_every;
  options.slo.enabled = slo;
  options.slo.start_thread = false;  // Tests poll by hand.
  run.sys = std::make_unique<TxRepSystem>(options);

  workload::TpcwScale scale;
  scale.items = 100;
  scale.customers = 50;
  scale.addresses = 100;
  scale.initial_orders = 20;
  scale.shopping_carts = 20;
  run.workload = std::make_unique<workload::TpcwWorkload>(scale, /*seed=*/211);
  TXREP_EXPECT_OK(run.workload->CreateSchema(run.sys->database()));
  TXREP_EXPECT_OK(run.workload->Populate(run.sys->database()));
  TXREP_EXPECT_OK(run.sys->Start());
  for (int i = 0; i < writes; ++i) {
    const workload::TpcwWorkload::TxnSpec spec =
        run.workload->NextWriteTransaction();
    TXREP_EXPECT_OK(
        run.sys->database().ExecuteTransaction(spec.statements).status());
  }
  TXREP_EXPECT_OK(run.sys->SyncToLatest());
  run.writes = writes;
  return run;
}

TEST(TracePipelineTest, CompleteTracesSumToE2eLag) {
  TracedRun run = RunTracedWorkload(/*sample_every=*/1, /*concurrent=*/true);
  ASSERT_NE(run.sys->tracer(), nullptr);
  const std::vector<SpanEvent> events = run.sys->tracer()->Dump();
  ASSERT_FALSE(events.empty());

  const std::vector<TraceSummary> summaries =
      trace::BuildTraceSummaries(events);
  int complete = 0;
  int64_t covered_total = 0;
  int64_t e2e_total = 0;
  for (const TraceSummary& s : summaries) {
    if (!s.complete()) continue;
    ++complete;
    covered_total += s.covered_micros;
    e2e_total += s.e2e_micros;
    // Per trace: the hops are contiguous intervals of the e2e window, so
    // coverage stays near 1 (loose per-trace bound; the 5% bar is aggregate).
    EXPECT_GT(s.coverage(), 0.5) << "trace " << s.trace_id;
    EXPECT_LT(s.coverage(), 1.5) << "trace " << s.trace_id;
    EXPECT_GT(s.e2e_micros, 0);
  }
  // Every post-Start write transaction was sampled and fully traced.
  EXPECT_GE(complete, run.writes);
  // Acceptance bar: per-txn spans sum to within 5% of the e2e lag.
  ASSERT_GT(e2e_total, 0);
  const double ratio =
      static_cast<double>(covered_total) / static_cast<double>(e2e_total);
  EXPECT_GT(ratio, 0.95) << covered_total << " of " << e2e_total;
  EXPECT_LT(ratio, 1.05) << covered_total << " of " << e2e_total;
}

TEST(TracePipelineTest, CriticalPathNamesDominantHop) {
  TracedRun run = RunTracedWorkload(/*sample_every=*/1, /*concurrent=*/true);
  const std::vector<TraceSummary> summaries =
      trace::BuildTraceSummaries(run.sys->tracer()->Dump());
  ASSERT_FALSE(summaries.empty());
  // Every complete summary attributes a real (non-e2e) hop.
  for (const TraceSummary& s : summaries) {
    if (!s.complete()) continue;
    EXPECT_NE(s.dominant, obs::Stage::kE2e);
    EXPECT_TRUE(s.has[static_cast<int>(s.dominant)]);
  }
  const std::string report = trace::CriticalPathReport(summaries);
  bool names_a_hop = false;
  for (obs::Stage stage : {obs::Stage::kPublish, obs::Stage::kBroker,
                           obs::Stage::kRecv, obs::Stage::kCommitEval,
                           obs::Stage::kApply}) {
    if (report.find(obs::StageName(stage)) != std::string::npos) {
      names_a_hop = true;
    }
  }
  EXPECT_TRUE(names_a_hop) << report;
}

TEST(TracePipelineTest, ChromeTraceExportIsValidAndReplicaConsistent) {
  TracedRun run = RunTracedWorkload(/*sample_every=*/1, /*concurrent=*/true);
  const std::string json =
      trace::ToChromeTraceJson(run.sys->tracer()->Dump());
  // Structural sanity of the hand-rolled JSON (the exporter unit test does
  // the deep check; here we assert the integration output).
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // Tracing must not perturb replication: full consistency audit.
  auto report = run.sys->AuditReplica();
  TXREP_ASSERT_OK(report.status());
  EXPECT_TRUE(report->consistent()) << report->Summary();
}

TEST(TracePipelineTest, SamplingIsDeterministicInLsn) {
  const uint64_t period = 10;
  TracedRun run = RunTracedWorkload(period, /*concurrent=*/true);
  const std::vector<SpanEvent> events = run.sys->tracer()->Dump();
  ASSERT_FALSE(events.empty());
  for (const SpanEvent& event : events) {
    EXPECT_EQ(event.lsn % period, 0u) << "unsampled lsn " << event.lsn
                                      << " left a span";
    EXPECT_EQ(event.trace_id, event.lsn);  // Trace id is the log position.
  }
}

TEST(TracePipelineTest, NothingSampledMeansNoSpans) {
  // A period far beyond the run's last LSN: no transaction samples, the
  // recorder stays empty, and the pipeline still replicates correctly.
  TracedRun run = RunTracedWorkload(/*sample_every=*/1'000'000'000,
                                    /*concurrent=*/true, /*writes=*/20);
  EXPECT_TRUE(run.sys->tracer()->Dump().empty());
  EXPECT_EQ(run.sys->tracer()->recorder().recorded(), 0);
  auto report = run.sys->AuditReplica();
  TXREP_ASSERT_OK(report.status());
  EXPECT_TRUE(report->consistent());
}

TEST(TracePipelineTest, SerialBaselineTracesWithoutCommitEval) {
  TracedRun run = RunTracedWorkload(/*sample_every=*/1, /*concurrent=*/false);
  const std::vector<TraceSummary> summaries =
      trace::BuildTraceSummaries(run.sys->tracer()->Dump());
  ASSERT_FALSE(summaries.empty());
  int complete = 0;
  for (const TraceSummary& s : summaries) {
    // The serial baseline has no TM, so no commit-eval span — complete()
    // already treats that hop as optional.
    EXPECT_FALSE(s.has[static_cast<int>(obs::Stage::kCommitEval)]);
    if (s.complete()) ++complete;
  }
  EXPECT_GE(complete, run.writes);
}

TEST(TracePipelineTest, SloWatchdogObservesAppliedLag) {
  TracedRun run = RunTracedWorkload(/*sample_every=*/1, /*concurrent=*/true,
                                    /*writes=*/30, /*slo=*/true);
  ASSERT_NE(run.sys->slo(), nullptr);
  run.sys->slo()->Poll();  // start_thread=false: evaluate by hand.
  const trace::SloStatus status = run.sys->slo()->Snapshot();
  // Every applied write fed ObserveLag (snapshot-loaded rows do not).
  EXPECT_GE(status.observations, run.writes);
  EXPECT_EQ(status.stalls, 0);  // A drained pipeline is not a stall.
  EXPECT_NE(run.sys->slo()->Report().find("slo:"), std::string::npos);
}

}  // namespace
}  // namespace txrep
