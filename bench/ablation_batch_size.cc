// Ablation: apply-path batch shape vs. replay throughput and replica lag.
//
// Replays a backlog of committed write sets into a simulated cluster (per-op
// service time 40us, 4 service slots, 4 dispatch threads) in one of two
// shapes: one entry per MultiWrite (op-at-a-time through the batch API), or
// the whole write set as one MultiWrite — what every applier does through
// TxnBuffer::ApplyTo. Each MultiWrite round trip costs one full service time
// plus a marginal per extra entry, so batching amortizes the dominant cost
// of apply. Replica lag is measured against a backlog model: every
// transaction is committed at t=0 and its lag is the wall-clock instant its
// write set finished applying — exactly the drain profile of a replica that
// fell behind.
//
// Expected: the whole-write-set arm is several times the op-at-a-time replay
// throughput.

#include <benchmark/benchmark.h>

#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"
#include "kv/kv_cluster.h"

namespace txrep::bench {
namespace {

constexpr int kTxns = 300;
constexpr int kWritesPerTxn = 16;
constexpr uint64_t kSeed = 113;

/// Pre-built committed write sets: the replay input, independent of the
/// batch shape under test.
std::vector<kv::KvWriteBatch> BuildWriteSets() {
  Random rng(kSeed);
  std::vector<kv::KvWriteBatch> txns(kTxns);
  for (kv::KvWriteBatch& writes : txns) {
    for (int i = 0; i < kWritesPerTxn; ++i) {
      const std::string key = "item" + std::to_string(rng.Uniform(4000));
      if (rng.Bernoulli(0.1)) {
        writes.push_back(kv::KvWrite::Delete(key));
      } else {
        writes.push_back(kv::KvWrite::Put(key, rng.NextString(24)));
      }
    }
  }
  return txns;
}

// arg: 1 ships each write set as one MultiWrite, 0 one entry per MultiWrite.
void BM_AblationApplyBatchSize(benchmark::State& state) {
  const bool whole_set = state.range(0) != 0;
  const std::vector<kv::KvWriteBatch> txns = BuildWriteSets();
  for (auto _ : state) {
    kv::KvClusterOptions cluster_options;
    cluster_options.num_nodes = 4;
    cluster_options.dispatch_threads = 4;
    cluster_options.node.service_time_micros = 40;
    cluster_options.node.service_slots = 4;
    kv::KvCluster cluster(cluster_options);
    auto apply = [&](std::span<const kv::KvWrite> writes) -> Status {
      if (whole_set) return cluster.MultiWrite(writes);
      for (size_t i = 0; i < writes.size(); ++i) {
        TXREP_RETURN_IF_ERROR(cluster.MultiWrite(writes.subspan(i, 1)));
      }
      return Status::OK();
    };

    // Drain the backlog. All txns are committed at t0; a txn's lag is the
    // instant its write set finished applying.
    int64_t lag_sum = 0;
    int64_t lag_max = 0;
    bool failed = false;
    Stopwatch sw;
    const int64_t t0 = NowMicros();
    for (const kv::KvWriteBatch& writes : txns) {
      if (!apply(writes).ok()) {
        failed = true;
        break;
      }
      const int64_t lag = NowMicros() - t0;
      lag_sum += lag;
      lag_max = lag > lag_max ? lag : lag_max;
    }
    if (failed) {
      state.SkipWithError("apply failed");
      break;
    }
    const double secs = sw.ElapsedSeconds();
    state.SetIterationTime(secs);
    state.counters["tx_per_s"] = kTxns / secs;
    state.counters["ops_per_s"] = kTxns * kWritesPerTxn / secs;
    state.counters["mean_lag_ms"] = (lag_sum / double{kTxns}) / 1e3;
    state.counters["max_lag_ms"] = lag_max / 1e3;
  }
  state.SetItemsProcessed(kTxns);
}

BENCHMARK(BM_AblationApplyBatchSize)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"whole_set"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace txrep::bench
