#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "common/clock.h"
#include "core/serial_applier.h"
#include "obs/exporters.h"
#include "trace/export.h"
#include "workload/synthetic.h"

namespace txrep::bench {

namespace {
void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench setup: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::abort();
  }
}

// Process-wide --trace-out capture (bench_main sets it before benchmarks
// run; replays append their recorder dumps; MaybeWriteTrace drains it).
std::mutex g_trace_mu;
std::string g_trace_path;
uint64_t g_trace_sample = 0;
std::vector<trace::SpanEvent> g_trace_events;

uint64_t GlobalTraceSample() {
  std::lock_guard<std::mutex> lock(g_trace_mu);
  return g_trace_sample;
}

void AccumulateTraceEvents(std::vector<trace::SpanEvent> events) {
  std::lock_guard<std::mutex> lock(g_trace_mu);
  if (g_trace_path.empty()) return;
  g_trace_events.insert(g_trace_events.end(), events.begin(), events.end());
}

/// Resolves a replay's tracer: an explicit per-call option wins, else the
/// process-wide --trace-out sampling, else no tracer.
std::unique_ptr<trace::Tracer> MakeReplayTracer(trace::TracerOptions trace) {
  if (trace.sample_every == 0) trace.sample_every = GlobalTraceSample();
  if (trace.sample_every == 0) return nullptr;
  return std::make_unique<trace::Tracer>(trace);
}
}  // namespace

void SetTraceOut(std::string path, uint64_t sample_every) {
  std::lock_guard<std::mutex> lock(g_trace_mu);
  g_trace_path = std::move(path);
  g_trace_sample = sample_every;
}

void MaybeWriteTrace() {
  std::string path;
  std::vector<trace::SpanEvent> events;
  {
    std::lock_guard<std::mutex> lock(g_trace_mu);
    if (g_trace_path.empty() || g_trace_events.empty()) return;
    path = g_trace_path;
    events.swap(g_trace_events);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write trace to %s\n", path.c_str());
    return;
  }
  std::fputs(trace::ToChromeTraceJson(events).c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "bench: wrote %zu trace spans to %s\n", events.size(),
               path.c_str());
}

kv::KvClusterOptions DefaultCluster(int num_nodes) {
  kv::KvClusterOptions options;
  options.num_nodes = num_nodes;
  options.node.service_time_micros = 40;  // Simulated KV round-trip.
  options.node.service_slots = 4;         // "Server threads" per node.
  return options;
}

BenchInput BuildSyntheticLog(int num_items, int hot_range, int txns,
                             uint64_t seed) {
  BenchInput input;
  const workload::SyntheticOptions options{
      .num_items = num_items, .hot_range = hot_range, .seed = seed};

  // Snapshot database: population only (deterministic for the seed).
  input.snapshot = std::make_unique<rel::Database>();
  {
    workload::SyntheticWorkload workload(options);
    CheckOk(workload.CreateSchema(*input.snapshot), "CreateSchema");
    CheckOk(workload.Populate(*input.snapshot), "Populate");
  }
  // Log database: same population, then the update stream; the log is
  // truncated to exactly the stream.
  input.db = std::make_unique<rel::Database>();
  {
    workload::SyntheticWorkload workload(options);
    CheckOk(workload.CreateSchema(*input.db), "CreateSchema");
    CheckOk(workload.Populate(*input.db), "Populate");
    const uint64_t population_lsn = input.db->log().LastLsn();
    CheckOk(workload.Run(*input.db, txns), "Run");
    input.db->log().TruncateUpTo(population_lsn);
    input.writes = txns;
  }
  return input;
}

BenchInput BuildTpcwLog(workload::TpcwMix mix, int interactions,
                        uint64_t seed) {
  BenchInput input;
  workload::TpcwScale scale;
  scale.items = 500;
  scale.customers = 300;
  scale.addresses = 600;
  scale.initial_orders = 100;

  input.snapshot = std::make_unique<rel::Database>();
  {
    workload::TpcwWorkload tpcw(scale, seed);
    CheckOk(tpcw.CreateSchema(*input.snapshot), "CreateSchema");
    CheckOk(tpcw.Populate(*input.snapshot), "Populate");
  }
  input.db = std::make_unique<rel::Database>();
  {
    workload::TpcwWorkload tpcw(scale, seed);
    CheckOk(tpcw.CreateSchema(*input.db), "CreateSchema");
    CheckOk(tpcw.Populate(*input.db), "Populate");
    const uint64_t population_lsn = input.db->log().LastLsn();
    for (int i = 0; i < interactions; ++i) {
      workload::TpcwWorkload::TxnSpec spec = tpcw.NextTransaction(mix);
      if (spec.is_write) {
        CheckOk(input.db->ExecuteTransaction(spec.statements).status(),
                "write txn");
        ++input.writes;
      } else {
        input.read_queries.push_back(std::move(spec.read_query));
      }
    }
    input.db->log().TruncateUpTo(population_lsn);
  }
  return input;
}

BenchInput BuildTpccLog(const workload::TpccOptions& options, int txns) {
  BenchInput input;
  input.snapshot = std::make_unique<rel::Database>();
  {
    workload::TpccWorkload tpcc(options);
    CheckOk(tpcc.CreateSchema(*input.snapshot), "CreateSchema");
    CheckOk(tpcc.Populate(*input.snapshot), "Populate");
  }
  input.db = std::make_unique<rel::Database>();
  {
    workload::TpccWorkload tpcc(options);
    CheckOk(tpcc.CreateSchema(*input.db), "CreateSchema");
    CheckOk(tpcc.Populate(*input.db), "Populate");
    const uint64_t population_lsn = input.db->log().LastLsn();
    CheckOk(tpcc.RunWrites(*input.db, txns), "RunWrites");
    input.db->log().TruncateUpTo(population_lsn);
    input.writes = txns;
  }
  return input;
}

ReplayResult RunSerialReplay(const BenchInput& input,
                             const kv::KvClusterOptions& cluster_options,
                             trace::TracerOptions trace) {
  obs::MetricsRegistry registry;
  qt::QueryTranslator translator(&input.db->catalog(), {});
  kv::KvCluster cluster(cluster_options, &registry);
  CheckOk(translator.LoadSnapshot(&cluster, *input.snapshot), "LoadSnapshot");

  std::unique_ptr<trace::Tracer> tracer = MakeReplayTracer(trace);
  core::SerialApplier applier(&cluster, &translator, &registry, tracer.get());
  std::vector<rel::LogTransaction> log = input.db->log().ReadSince(0);
  if (tracer != nullptr) {
    for (rel::LogTransaction& txn : log) txn.trace = tracer->Mint(txn.lsn);
  }
  Stopwatch sw;
  CheckOk(applier.ApplyBatch(log), "ApplyBatch");
  ReplayResult result;
  result.seconds = sw.ElapsedSeconds();
  result.tx_per_sec = static_cast<double>(log.size()) / result.seconds;
  if (tracer != nullptr) {
    std::vector<trace::SpanEvent> events = tracer->Dump();
    result.trace_spans = static_cast<int64_t>(events.size());
    AccumulateTraceEvents(std::move(events));
  }
  result.metrics_json = obs::ToJson(registry.Snapshot());
  return result;
}

ReplayResult RunConcurrentReplay(const BenchInput& input,
                                 const kv::KvClusterOptions& cluster_options,
                                 int threads, core::TmOptions tm_options,
                                 trace::TracerOptions trace) {
  obs::MetricsRegistry registry;
  qt::QueryTranslator translator(&input.db->catalog(), {});
  kv::KvCluster cluster(cluster_options, &registry);
  CheckOk(translator.LoadSnapshot(&cluster, *input.snapshot), "LoadSnapshot");

  tm_options.top_threads = threads;
  tm_options.bottom_threads = threads;
  std::unique_ptr<trace::Tracer> tracer = MakeReplayTracer(trace);
  std::vector<rel::LogTransaction> log = input.db->log().ReadSince(0);
  if (tracer != nullptr) {
    for (rel::LogTransaction& txn : log) txn.trace = tracer->Mint(txn.lsn);
  }
  ReplayResult result;
  Stopwatch sw;
  {
    core::TransactionManager tm(&cluster, &translator, tm_options, &registry,
                                tracer.get());
    for (rel::LogTransaction& txn : log) {
      tm.SubmitUpdate(std::move(txn));
    }
    CheckOk(tm.WaitIdle(), "WaitIdle");
    result.seconds = sw.ElapsedSeconds();
    result.stats = tm.stats();
  }
  result.tx_per_sec = static_cast<double>(log.size()) / result.seconds;
  result.conflicts = result.stats.conflicts;
  result.restarts = result.stats.restarts;
  if (tracer != nullptr) {
    std::vector<trace::SpanEvent> events = tracer->Dump();
    result.trace_spans = static_cast<int64_t>(events.size());
    AccumulateTraceEvents(std::move(events));
  }
  result.metrics_json = obs::ToJson(registry.Snapshot());
  return result;
}

void WriteMetricsJson(const std::string& bench_name,
                      const ReplayResult& result) {
  if (result.metrics_json.empty()) return;
  const std::string path = bench_name + ".metrics.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs(result.metrics_json.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace txrep::bench
