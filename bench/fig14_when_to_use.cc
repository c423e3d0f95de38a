// Paper Fig. 14: "when to use concurrency" — throughput improvement of
// concurrent over serial as a function of the *measured* conflict count,
// locating the crossover below which concurrency stops paying off.
//
// Expected shape: improvement decreasing in the conflict count, crossing 0%
// at a high conflict level (paper: "in case the conflict ratio is too high
// it is better to use the serial execution"). The synthetic updates write
// blind, so same-row pairs show up as `apply_orders`, not `conflicts` (see
// fig13_conflict_impact.cc).

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace txrep::bench {
namespace {

constexpr int kItems = 2000;
constexpr int kTxns = 1200;
constexpr uint64_t kSeed = 106;

// arg: hot_range — a finer sweep than fig13 around the crossover.
void BM_Fig14_WhenToUse(benchmark::State& state) {
  const int hot_range = static_cast<int>(state.range(0));
  BenchInput input = BuildSyntheticLog(kItems, hot_range, kTxns, kSeed);
  for (auto _ : state) {
    ReplayResult serial = RunSerialReplay(input, DefaultCluster());
    ReplayResult concurrent =
        RunConcurrentReplay(input, DefaultCluster(), 20);
    state.SetIterationTime(serial.seconds + concurrent.seconds);
    state.counters["conflicts"] = static_cast<double>(concurrent.conflicts);
    state.counters["apply_orders"] =
        static_cast<double>(concurrent.stats.apply_orders);
    state.counters["improvement_pct"] =
        (concurrent.tx_per_sec - serial.tx_per_sec) / serial.tx_per_sec *
        100.0;
    state.counters["use_concurrency"] =
        concurrent.tx_per_sec > serial.tx_per_sec ? 1.0 : 0.0;
  }
  state.SetItemsProcessed(kTxns);
}

BENCHMARK(BM_Fig14_WhenToUse)
    ->Arg(1000)
    ->Arg(200)
    ->Arg(50)
    ->Arg(10)
    ->Arg(4)
    ->Arg(2)
    ->Arg(1)
    ->ArgNames({"hot_range"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace txrep::bench
