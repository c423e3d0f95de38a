// Paper Fig. 12: number of conflicts during concurrent replay as a function
// of the number of transactions in the replication message, for 10 and 20
// threads.
//
// Expected shape: conflicts grow with the transaction count, and more
// threads produce more conflicts (more overlap). The synthetic updates write
// blind, so the paper's same-row conflicts count as `apply_orders` here
// (see fig13_conflict_impact.cc).

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace txrep::bench {
namespace {

constexpr int kItems = 2000;
// A narrower hot range than fig10/11 so conflicts are plentiful enough to
// show the trend clearly.
constexpr int kHotRange = 300;
constexpr uint64_t kSeed = 103;

// args: {num_transactions, threads}.
void BM_Fig12_Conflicts(benchmark::State& state) {
  const int txns = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  BenchInput input = BuildSyntheticLog(kItems, kHotRange, txns, kSeed);
  for (auto _ : state) {
    ReplayResult result =
        RunConcurrentReplay(input, DefaultCluster(), threads);
    state.SetIterationTime(result.seconds);
    state.counters["conflicts"] = static_cast<double>(result.conflicts);
    state.counters["apply_orders"] =
        static_cast<double>(result.stats.apply_orders);
    state.counters["restarts"] = static_cast<double>(result.restarts);
  }
  state.SetItemsProcessed(txns);
}

BENCHMARK(BM_Fig12_Conflicts)
    ->ArgsProduct({{500, 1000, 2000, 3000}, {10, 20}})
    ->ArgNames({"txns", "threads"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace txrep::bench
