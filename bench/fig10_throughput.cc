// Paper Fig. 10: replication throughput (transactions/second) for serial
// execution vs. the concurrent TM with 10 and 20 threads, as a function of
// the number of transactions in the replication message.
//
// Expected shape: concurrent beats serial at every size by roughly the
// paper's ~2x factor or more; 20 threads >= 10 threads.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace txrep::bench {
namespace {

constexpr int kItems = 2000;
constexpr uint64_t kSeed = 101;

// args: {num_transactions, threads (0 = serial baseline)}.
void BM_Fig10_Throughput(benchmark::State& state) {
  const int txns = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  BenchInput input = BuildSyntheticLog(kItems, kItems, txns, kSeed);
  ReplayResult last;
  for (auto _ : state) {
    ReplayResult result =
        threads == 0 ? RunSerialReplay(input, DefaultCluster())
                     : RunConcurrentReplay(input, DefaultCluster(), threads);
    state.SetIterationTime(result.seconds);
    state.counters["tx_per_s"] = result.tx_per_sec;
    state.counters["conflicts"] = static_cast<double>(result.conflicts);
    state.counters["apply_orders"] =
        static_cast<double>(result.stats.apply_orders);
    last = std::move(result);
  }
  WriteMetricsJson("fig10_txns" + std::to_string(txns) + "_threads" +
                       std::to_string(threads),
                   last);
  state.SetItemsProcessed(txns);
}

BENCHMARK(BM_Fig10_Throughput)
    ->ArgsProduct({{500, 1000, 2000, 3000}, {0, 10, 20}})
    ->ArgNames({"txns", "threads"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace txrep::bench
