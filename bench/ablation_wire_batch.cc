// Ablation H: frame batch size vs. replay throughput and replica lag across
// the wire boundary. The same publisher -> broker -> subscriber replay runs
// twice per batch size: in-process (broker queue hand-off) and over a
// socketpair (NetEndpoint frames + NetSubscription), so the delta isolates
// what the wire itself costs — encode/checksum/decode per frame plus the
// credit round-trips.
//
// Expected: tiny batches pay per-frame overhead and credit chatter (the wire
// arm trails in-process most at batch=1); large batches close the throughput
// gap but push p99 lag up on both arms — the first transaction of a batch
// waits for the whole batch to ship.

#include <benchmark/benchmark.h>

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "codec/schema_codec.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "core/serial_applier.h"
#include "kv/inmemory_node.h"
#include "mw/broker.h"
#include "mw/publisher.h"
#include "mw/subscriber.h"
#include "net/endpoint.h"
#include "net/socket.h"
#include "net/subscription.h"
#include "qt/query_translator.h"
#include "rel/database.h"
#include "workload/synthetic.h"

namespace txrep::bench {
namespace {

constexpr int kTxns = 600;
constexpr uint64_t kSeed = 131;
constexpr char kTopic[] = "txrep.log";

/// Publish timestamps, keyed by the shipped-LSN watermark after each pump.
/// The apply sink looks up the pump that shipped a given LSN; publish
/// happens-before delivery, so the mark always exists by the time the
/// transaction reaches the sink.
class PublishClock {
 public:
  void Mark(uint64_t shipped_lsn, int64_t micros) {
    std::lock_guard<std::mutex> lock(mu_);
    marks_.emplace_back(shipped_lsn, micros);
  }

  // Single consumer, LSNs arrive in order: the cursor only moves forward.
  int64_t PublishTimeFor(uint64_t lsn) {
    std::lock_guard<std::mutex> lock(mu_);
    while (idx_ < marks_.size() && marks_[idx_].first < lsn) ++idx_;
    return idx_ < marks_.size() ? marks_[idx_].second : 0;
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<uint64_t, int64_t>> marks_;
  size_t idx_ = 0;
};

void RunReplay(benchmark::State& state, size_t batch, bool wire) {
  for (auto _ : state) {
    rel::Database db;
    workload::SyntheticWorkload workload(
        {.num_items = 2000, .hot_range = 2000, .seed = kSeed});
    if (!workload.CreateSchema(db).ok() || !workload.Populate(db).ok() ||
        !workload.Run(db, kTxns).ok()) {
      state.SkipWithError("workload setup failed");
      break;
    }
    const uint64_t last_lsn = db.log().LastLsn();

    qt::QueryTranslator translator(&db.catalog());
    kv::InMemoryKvNode store;
    core::SerialApplier applier(&store, &translator);
    PublishClock clock;
    Histogram lag;
    auto sink = [&](rel::LogTransaction txn) {
      const uint64_t lsn = txn.lsn;
      Status status = applier.Apply(std::move(txn));
      const int64_t published = clock.PublishTimeFor(lsn);
      if (published != 0) lag.Record(NowMicros() - published);
      return status;
    };

    mw::Broker broker;
    net::NetEndpoint endpoint(&broker, {.topic = kTopic});
    endpoint.SetCatalog(codec::EncodeCatalog(db.catalog()));
    struct Teardown {
      net::NetEndpoint* endpoint;
      mw::Broker* broker;
      ~Teardown() {
        endpoint->Stop();
        broker->Shutdown();
      }
    } teardown{&endpoint, &broker};

    std::unique_ptr<net::NetSubscription> subscription;
    std::unique_ptr<mw::SubscriberAgent> agent;
    if (wire) {
      net::NetSubscriptionOptions sub_options;
      sub_options.topic = kTopic;
      subscription = std::make_unique<net::NetSubscription>(
          [&endpoint]() -> Result<net::Socket> {
            TXREP_ASSIGN_OR_RETURN(auto pair, net::Socket::CreatePair());
            TXREP_RETURN_IF_ERROR(endpoint.ServeSocket(std::move(pair.first)));
            return std::move(pair.second);
          },
          sub_options);
      agent = std::make_unique<mw::SubscriberAgent>(subscription.get(), sink);
    } else {
      agent = std::make_unique<mw::SubscriberAgent>(broker.Subscribe(kTopic),
                                                    sink);
    }

    mw::PublisherAgent publisher(&db.log(), &broker,
                                 {.topic = kTopic, .batch_size = batch,
                                  .start_after_lsn = 0});
    Stopwatch sw;
    while (publisher.shipped_lsn() < last_lsn) {
      Result<size_t> shipped = publisher.PumpOnce();
      if (!shipped.ok()) {
        state.SkipWithError("publish failed");
        return;
      }
      if (*shipped > 0) clock.Mark(publisher.shipped_lsn(), NowMicros());
    }
    if (!agent->WaitForLsn(last_lsn)) {
      state.SkipWithError("replica never caught up");
      return;
    }
    const double secs = sw.ElapsedSeconds();

    if (wire) subscription->Close();
    agent->Stop();

    state.SetIterationTime(secs);
    state.counters["tx_per_s"] = static_cast<double>(last_lsn) / secs;
    state.counters["p50_lag_ms"] = lag.Percentile(0.50) / 1e3;
    state.counters["p99_lag_ms"] = lag.Percentile(0.99) / 1e3;
  }
  state.SetItemsProcessed(kTxns);
}

void BM_WireBatchInProcess(benchmark::State& state) {
  RunReplay(state, static_cast<size_t>(state.range(0)), /*wire=*/false);
}

void BM_WireBatchSocketpair(benchmark::State& state) {
  RunReplay(state, static_cast<size_t>(state.range(0)), /*wire=*/true);
}

BENCHMARK(BM_WireBatchInProcess)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->ArgNames({"batch"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_WireBatchSocketpair)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->ArgNames({"batch"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace txrep::bench
