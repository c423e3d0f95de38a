// Ablation B: Algorithm 2's GC threshold — completions between passes that
// trim the per-key completion stamps. A tiny threshold trims constantly (GC
// work under the controller mutex); a huge one never trims (the stamp maps
// grow with every key the replay touches, but each commit evaluation still
// costs one lookup per key).
//
// Expected: throughput roughly flat across thresholds; gc_runs falls as the
// threshold grows.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace txrep::bench {
namespace {

constexpr int kItems = 2000;
constexpr int kTxns = 2500;
constexpr uint64_t kSeed = 111;

// arg: completed_gc_threshold.
void BM_AblationGcThreshold(benchmark::State& state) {
  const auto threshold = static_cast<size_t>(state.range(0));
  BenchInput input = BuildSyntheticLog(kItems, 500, kTxns, kSeed);
  for (auto _ : state) {
    core::TmOptions tm_options;
    tm_options.completed_gc_threshold = threshold;
    ReplayResult result =
        RunConcurrentReplay(input, DefaultCluster(), 20, tm_options);
    state.SetIterationTime(result.seconds);
    state.counters["tx_per_s"] = result.tx_per_sec;
    state.counters["gc_runs"] = static_cast<double>(result.stats.gc_runs);
    state.counters["gc_removed"] =
        static_cast<double>(result.stats.gc_removed);
  }
  state.SetItemsProcessed(kTxns);
}

BENCHMARK(BM_AblationGcThreshold)
    ->Arg(4)
    ->Arg(64)
    ->Arg(256)
    ->Arg(2048)
    ->Arg(1000000)  // Effectively never GC.
    ->ArgNames({"gc_threshold"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace txrep::bench
