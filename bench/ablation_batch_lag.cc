// Ablation C: publisher batch size vs. replication lag and transactions per
// message, through the middleware hop the batch size governs (transaction
// log -> publisher pump -> broker -> subscriber hand-off). The pump wakes on
// every commit (TxLog::WaitForAppend), so the batch size only matters when a
// backlog builds up. Two arms per batch size:
//
//  - stream:  commits arrive one at a time on a fixed 2000/s schedule with
//             the pump already running. Reports mean and p95 lag (commit ->
//             subscriber hand-off) and transactions per message.
//  - backlog: the log already holds 50 or 1000 commits when the pump
//             starts. Reports transactions per message and drain throughput.
//
// Expected: under the stream every message carries about one transaction
// and lag does not depend on the batch size; under the backlog each message
// carries min(batch, backlog) transactions. So a backlog still fills whole
// batches without any poll interval.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "mw/broker.h"
#include "mw/publisher.h"
#include "mw/subscriber.h"
#include "rel/txlog.h"

namespace txrep::bench {
namespace {

constexpr int kStreamCommits = 1000;
constexpr int64_t kStreamGapMicros = 500;  // 2000 commits/s.

std::vector<rel::LogOp> MakeOps(int64_t pk) {
  return {rel::LogOp{rel::LogOpType::kUpdate, "ITEM", rel::Value::Int(pk),
                     {rel::Value::Int(pk), rel::Value::Str("payload")}}};
}

void ReportMessages(benchmark::State& state, int txns,
                    const mw::PublisherAgent& publisher) {
  state.counters["messages"] =
      static_cast<double>(publisher.messages_published());
  state.counters["tx_per_msg"] =
      static_cast<double>(txns) /
      static_cast<double>(publisher.messages_published());
}

// arg: publisher batch size.
void BM_BatchLagStream(benchmark::State& state) {
  const auto batch = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    rel::TxLog log;
    mw::Broker broker;
    Histogram lag;
    mw::SubscriberAgent subscriber(&broker, "t", [&](rel::LogTransaction txn) {
      lag.Record(NowMicros() - txn.commit_micros);
      return Status::OK();
    });
    mw::PublisherAgent publisher(&log, &broker,
                                 {.topic = "t", .batch_size = batch});
    publisher.Start();
    Stopwatch sw;
    const int64_t start = NowMicros();
    for (int i = 0; i < kStreamCommits; ++i) {
      const int64_t due = start + i * kStreamGapMicros;
      const int64_t now = NowMicros();
      if (due > now) SleepForMicros(due - now);
      log.Append(MakeOps(i));
    }
    if (!subscriber.WaitForLsn(kStreamCommits)) {
      state.SkipWithError("subscriber never caught up");
      break;
    }
    state.SetIterationTime(sw.ElapsedSeconds());
    publisher.Stop();
    broker.Shutdown();
    subscriber.Stop();
    state.counters["mean_lag_ms"] = lag.Mean() / 1e3;
    state.counters["p95_lag_ms"] = lag.Percentile(0.95) / 1e3;
    ReportMessages(state, kStreamCommits, publisher);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kStreamCommits);
}

// args: publisher batch size, backlog length.
void BM_BatchLagBacklog(benchmark::State& state) {
  const auto batch = static_cast<size_t>(state.range(0));
  const auto backlog = static_cast<int>(state.range(1));
  for (auto _ : state) {
    rel::TxLog log;
    for (int i = 0; i < backlog; ++i) log.Append(MakeOps(i));
    mw::Broker broker;
    mw::SubscriberAgent subscriber(&broker, "t", [](rel::LogTransaction) {
      return Status::OK();
    });
    mw::PublisherAgent publisher(&log, &broker,
                                 {.topic = "t", .batch_size = batch});
    Stopwatch sw;
    publisher.Start();
    if (!subscriber.WaitForLsn(backlog)) {
      state.SkipWithError("subscriber never caught up");
      break;
    }
    const double secs = sw.ElapsedSeconds();
    state.SetIterationTime(secs);
    publisher.Stop();
    broker.Shutdown();
    subscriber.Stop();
    state.counters["tx_per_s"] = backlog / secs;
    ReportMessages(state, backlog, publisher);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          backlog);
}

BENCHMARK(BM_BatchLagStream)
    ->Arg(1)
    ->Arg(10)
    ->Arg(100)
    ->ArgNames({"batch"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_BatchLagBacklog)
    ->ArgsProduct({{1, 10, 100}, {50, 1000}})
    ->ArgNames({"batch", "backlog"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace txrep::bench
