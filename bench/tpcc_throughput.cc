// TPC-C-lite replication benches (DESIGN.md §15, EXPERIMENTS.md):
//
//  * BM_TpccThroughput — concurrent replay throughput vs warehouse count.
//    Fewer warehouses concentrate the per-district next_o_id counters, so
//    conflicts rise and throughput falls as warehouses shrink.
//  * BM_TpccSkew — fixed 4 warehouses, rising Zipf theta: skew re-creates
//    the single-warehouse hotspot even at larger scale.
//  * BM_TpccOverloadSlo — open-loop load at fixed offered rates spanning the
//    replica's capacity, feeding the replica-lag SLO watchdog: below capacity
//    the lag objective holds; past it the backlog (and the violation
//    fraction) grows without bound. This is the sustained-overload scenario
//    from the loadgen library wired to a live TM. Rates are absolute, so a
//    run offers the same load whatever the host's capacity; compare
//    BM_TpccThroughput/warehouses:2 to place them relative to it.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "core/transaction_manager.h"
#include "obs/exporters.h"
#include "trace/slo.h"
#include "workload/loadgen.h"
#include "workload/tpcc.h"

namespace txrep::bench {
namespace {

constexpr int kTxns = 2000;
constexpr uint64_t kSeed = 110;
constexpr int kThreads = 20;  // Paper default: 20 top + 20 bottom.

workload::TpccOptions OptionsFor(int warehouses, double zipf_theta) {
  workload::TpccOptions options;
  options.seed = kSeed;
  options.scale.warehouses = warehouses;
  options.warehouse_zipf_theta = zipf_theta;
  return options;
}

// arg: warehouse count.
void BM_TpccThroughput(benchmark::State& state) {
  const int warehouses = static_cast<int>(state.range(0));
  BenchInput input = BuildTpccLog(OptionsFor(warehouses, 0.0), kTxns);
  const auto cluster_options = DefaultCluster();

  ReplayResult last;
  for (auto _ : state) {
    last = RunConcurrentReplay(input, cluster_options, kThreads);
    state.SetIterationTime(last.seconds);
    state.counters["tx_per_s"] = last.tx_per_sec;
    state.counters["conflicts"] = static_cast<double>(last.conflicts);
    state.counters["restarts"] = static_cast<double>(last.restarts);
  }
  WriteMetricsJson("tpcc_throughput_w" + std::to_string(warehouses), last);
  state.SetItemsProcessed(kTxns);
}

BENCHMARK(BM_TpccThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"warehouses"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// arg: Zipf theta x100 over the warehouse pick (0 = uniform).
void BM_TpccSkew(benchmark::State& state) {
  const double theta = static_cast<double>(state.range(0)) / 100.0;
  BenchInput input = BuildTpccLog(OptionsFor(4, theta), kTxns);
  const auto cluster_options = DefaultCluster();

  for (auto _ : state) {
    const ReplayResult r = RunConcurrentReplay(input, cluster_options,
                                               kThreads);
    state.SetIterationTime(r.seconds);
    state.counters["tx_per_s"] = r.tx_per_sec;
    state.counters["conflicts"] = static_cast<double>(r.conflicts);
  }
  state.SetItemsProcessed(kTxns);
}

BENCHMARK(BM_TpccSkew)
    ->Arg(0)
    ->Arg(50)
    ->Arg(90)
    ->Arg(120)
    ->ArgNames({"theta_x100"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// arg: offered load, transactions per second.
void BM_TpccOverloadSlo(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0));
  const workload::TpccOptions tpcc_options = OptionsFor(2, 0.0);
  const auto cluster_options = DefaultCluster();

  for (auto _ : state) {
    workload::LoadGenOptions load;
    load.base_rate_per_sec = rate;
    load.duration_micros = 1'000'000;
    load.seed = kSeed + static_cast<uint64_t>(state.range(0));
    load.drain_timeout_micros = 20'000'000;
    const workload::ArrivalSchedule schedule(load);
    const int needed = static_cast<int>(schedule.offsets().size()) + 1;

    BenchInput input = BuildTpccLog(tpcc_options, needed);
    std::vector<rel::LogTransaction> log = input.db->log().ReadSince(0);

    obs::MetricsRegistry registry;
    qt::QueryTranslator translator(&input.db->catalog(), {});
    kv::KvCluster cluster(cluster_options, &registry);
    const Status snap = translator.LoadSnapshot(&cluster, *input.snapshot);
    if (!snap.ok()) state.SkipWithError(snap.ToString().c_str());

    trace::SloOptions slo;
    slo.enabled = true;
    slo.start_thread = false;  // The runner polls; no background thread.
    slo.lag_objective_micros = 50'000;
    trace::SloWatchdog watchdog(slo);

    core::TmOptions tm_options;
    tm_options.top_threads = kThreads;
    tm_options.bottom_threads = kThreads;
    workload::LoadReport report;
    trace::SloStatus slo_status;
    {
      core::TransactionManager tm(&cluster, &translator, tm_options,
                                  &registry);
      workload::OpenLoopRunner runner(load, &registry, &watchdog);
      size_t next = 0;
      workload::OpenLoopRunner::Hooks hooks;
      hooks.submit = [&]() -> Result<uint64_t> {
        if (next >= log.size()) {
          return Status::ResourceExhausted("pre-generated log exhausted");
        }
        rel::LogTransaction txn = log[next++];
        const uint64_t lsn = txn.lsn;
        tm.SubmitUpdate(std::move(txn));
        return lsn;
      };
      hooks.applied_lsn = [&]() -> uint64_t { return tm.last_applied_lsn(); };
      report = runner.Run(hooks);
      const Status idle = tm.WaitIdle();
      if (!idle.ok()) state.SkipWithError(idle.ToString().c_str());
      slo_status = watchdog.Snapshot();
    }

    state.SetIterationTime(static_cast<double>(report.wall_micros) / 1e6);
    state.counters["offered_per_s"] = report.offered_rate_per_sec;
    state.counters["achieved_per_s"] = report.achieved_rate_per_sec;
    state.counters["lag_p99_ms"] = report.lag.p99 / 1e3;
    state.counters["shed"] = static_cast<double>(report.shed);
    state.counters["slo_violation_frac"] =
        slo_status.observations == 0
            ? 0.0
            : static_cast<double>(slo_status.violations) /
                  static_cast<double>(slo_status.observations);
    state.counters["drained"] = report.drained ? 1.0 : 0.0;
  }
  state.SetLabel("offered=" + std::to_string(state.range(0)) + "/s");
}

BENCHMARK(BM_TpccOverloadSlo)
    ->Arg(400)
    ->Arg(600)
    ->Arg(750)
    ->Arg(950)
    ->ArgNames({"rate_per_s"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace txrep::bench
