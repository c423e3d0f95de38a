// Paper Fig. 13: impact of conflicts on throughput — improvement percentage
// of concurrent over serial execution for a fixed transaction count, as the
// injected conflict level rises (narrower hot ranges = more conflicts).
//
// Expected shape: a steady large improvement at zero/low conflict, declining
// as conflicts grow, and eventually NEGATIVE (concurrent slower than serial)
// at extreme conflict levels — the paper's 6179-conflict case.
//
// The synthetic table has no secondary index, so its updates write blind:
// two updates of one row overlap write/write only, which orders their
// applies instead of restarting (DESIGN.md §3). `conflicts` then stays 0
// and `apply_orders` counts the paper's conflicts.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace txrep::bench {
namespace {

constexpr int kItems = 2000;
constexpr int kTxns = 1500;  // Paper used 4500.
constexpr uint64_t kSeed = 105;

// arg: hot_range (smaller -> more conflicts).
void BM_Fig13_ConflictImpact(benchmark::State& state) {
  const int hot_range = static_cast<int>(state.range(0));
  BenchInput input = BuildSyntheticLog(kItems, hot_range, kTxns, kSeed);
  for (auto _ : state) {
    ReplayResult serial = RunSerialReplay(input, DefaultCluster());
    ReplayResult concurrent =
        RunConcurrentReplay(input, DefaultCluster(), 20);
    state.SetIterationTime(serial.seconds + concurrent.seconds);
    const double improvement_pct =
        (concurrent.tx_per_sec - serial.tx_per_sec) / serial.tx_per_sec *
        100.0;
    state.counters["improvement_pct"] = improvement_pct;
    state.counters["conflicts"] = static_cast<double>(concurrent.conflicts);
    state.counters["apply_orders"] =
        static_cast<double>(concurrent.stats.apply_orders);
    state.counters["serial_tx_s"] = serial.tx_per_sec;
    state.counters["concurrent_tx_s"] = concurrent.tx_per_sec;
  }
  state.SetItemsProcessed(kTxns);
}

BENCHMARK(BM_Fig13_ConflictImpact)
    ->Arg(2000)  // Conflict-minimal.
    ->Arg(500)
    ->Arg(100)
    ->Arg(20)
    ->Arg(5)
    ->Arg(2)
    ->Arg(1)     // Every transaction collides.
    ->ArgNames({"hot_range"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace txrep::bench
