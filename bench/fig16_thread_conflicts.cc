// Paper Fig. 16: effect of the thread count on the number of conflicts —
// more threads means more concurrent overlap, hence more conflicts for the
// same transaction stream. The synthetic updates write blind, so the
// paper's same-row conflicts count as `apply_orders` here (see
// fig13_conflict_impact.cc).

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace txrep::bench {
namespace {

constexpr int kItems = 2000;
constexpr int kHotRange = 200;  // Conflict-prone stream.
constexpr uint64_t kSeed = 108;

// args: {num_transactions, threads}.
void BM_Fig16_ThreadConflicts(benchmark::State& state) {
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
    state.counters["tx_per_s"] = result.tx_per_sec;
  }
  state.SetItemsProcessed(txns);
}

BENCHMARK(BM_Fig16_ThreadConflicts)
    ->ArgsProduct({{1000, 2000}, {2, 5, 10, 15}})
    ->ArgNames({"txns", "threads"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace txrep::bench
