// Ablation I: reader scaling of the optimistic version-latched B-link index
// (DESIGN.md §14). Workload: R reader threads run full-range scans against a
// prepopulated tree while two writer threads churn keys (insert + remove,
// forcing splits and latch traffic) and 8-entry MultiWrite calls sustain
// batched noise applies against the same simulated KV node — the replica
// steady state: tail replay landing while index readers serve queries.
//
// Expected: aggregate scans/sec grows with R because optimistic readers take
// no latches and their simulated KV round trips (25 µs per node read)
// overlap; the acceptance bar for the latch tentpole is >= 3x aggregate
// throughput at 8 readers vs 1. `p99_us` is per-scan latency; `retries` and
// `restarts` count how often version validation actually made readers redo
// work (zero would mean the bench exercised nothing).

#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "blink/blink_tree.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "kv/inmemory_node.h"
#include "kv/kv_types.h"
#include "rel/value.h"

namespace txrep::bench {
namespace {

constexpr int64_t kServiceMicros = 25;  // Per-op KV round trip (paper §6.2).
constexpr int kMaxNodeKeys = 16;
constexpr int kSeedEntries = 300;    // ~20 leaves: a scan is ~22 round trips.
constexpr int kWriters = 2;
constexpr int64_t kRunMicros = 250'000;  // Measured window per iteration.

using rel::Value;

// arg: reader thread count.
void BM_AblationIndexLatch(benchmark::State& state) {
  const int readers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    kv::InMemoryKvNode store({.service_time_micros = kServiceMicros});
    blink::BlinkTree tree(&store, "ITEM", "COST",
                          {.max_node_keys = kMaxNodeKeys});
    if (!tree.Init().ok()) {
      state.SkipWithError("tree init failed");
      break;
    }
    for (int i = 0; i < kSeedEntries; ++i) {
      if (!tree.Insert(Value::Int(i * 10), "seed").ok()) {
        state.SkipWithError("seed insert failed");
        return;
      }
    }

    std::atomic<bool> stop{false};
    std::atomic<int64_t> scans{0};
    std::atomic<int> errors{0};
    Histogram scan_latency;

    // Writers churn odd keys inside the seeded range: every insert/remove
    // pair takes the leaf latch and periodically splits, so readers keep
    // hitting version bumps. MultiWrite lands batched noise writes on
    // the same node, occupying its service capacity like tail replay does.
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        std::vector<kv::KvWrite> noise;
        for (int i = 0; i < 8; ++i) {
          noise.push_back(kv::KvWrite::Put(
              "!noise_" + std::to_string(w) + "_" + std::to_string(i),
              std::string(64, 'x')));
        }
        for (int64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
          const int64_t key = (k % kSeedEntries) * 10 + 1 + w;
          if (!tree.Insert(Value::Int(key), "churn").ok() ||
              !tree.Remove(Value::Int(key), "churn").ok() ||
              !store.MultiWrite(noise).ok()) {
            ++errors;
            return;
          }
        }
      });
    }
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          const int64_t begin = NowMicros();
          Result<std::vector<blink::EntryKey>> got =
              tree.RangeScan(Value::Int(0), Value::Int(kSeedEntries * 10));
          if (!got.ok() || got->size() < kSeedEntries) {
            ++errors;
            return;
          }
          scan_latency.Record(NowMicros() - begin);
          scans.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    const int64_t start = NowMicros();
    SleepForMicros(kRunMicros);
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();
    const double seconds = (NowMicros() - start) * 1e-6;

    if (errors.load() != 0) {
      state.SkipWithError("reader or writer thread failed");
      break;
    }
    const blink::BlinkTreeStats stats = tree.stats();
    state.SetIterationTime(seconds);
    state.counters["scans_per_s"] = static_cast<double>(scans.load()) / seconds;
    state.counters["p99_us"] = scan_latency.Percentile(0.99);
    state.counters["retries"] = static_cast<double>(stats.read_retries);
    state.counters["restarts"] = static_cast<double>(stats.read_restarts);
  }
  state.SetLabel(std::to_string(readers) + "_readers");
}

BENCHMARK(BM_AblationIndexLatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"readers"})
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace txrep::bench
