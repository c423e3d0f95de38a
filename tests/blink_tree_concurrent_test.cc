#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "blink/blink_tree.h"
#include "check/invariants.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "kv/kv_types.h"
#include "test_util.h"

namespace txrep::blink {
namespace {

using rel::Value;

TEST(BlinkTreeConcurrentTest, ParallelDisjointInserts) {
  kv::InMemoryKvNode store;
  BlinkTree tree(&store, "T", "C", {.max_node_keys = 8});
  TXREP_ASSERT_OK(tree.Init());

  constexpr int kThreads = 4, kPerThread = 250;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int64_t v = t * kPerThread + i;
        if (!tree.Insert(Value::Int(v), "r" + std::to_string(v)).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  TXREP_ASSERT_OK(tree.Validate());
  EXPECT_EQ(*tree.EntryCount(), kThreads * kPerThread);
  for (int v = 0; v < kThreads * kPerThread; ++v) {
    ASSERT_TRUE(*tree.Contains(Value::Int(v), "r" + std::to_string(v)))
        << "lost entry " << v;
  }
}

TEST(BlinkTreeConcurrentTest, OverlappingValuesDistinctRowKeys) {
  kv::InMemoryKvNode store;
  BlinkTree tree(&store, "T", "C", {.max_node_keys = 6});
  TXREP_ASSERT_OK(tree.Init());

  constexpr int kThreads = 4, kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Heavy duplication on values: only 20 distinct values.
        TXREP_ASSERT_OK(tree.Insert(
            Value::Int(i % 20), "t" + std::to_string(t) + "_" +
                                     std::to_string(i)));
      }
    });
  }
  for (auto& t : threads) t.join();
  TXREP_ASSERT_OK(tree.Validate());
  EXPECT_EQ(*tree.EntryCount(), kThreads * kPerThread);
}

TEST(BlinkTreeConcurrentTest, ReadersNeverBlockOrMisreadDuringInserts) {
  kv::InMemoryKvNode store;
  BlinkTree tree(&store, "T", "C", {.max_node_keys = 4});
  TXREP_ASSERT_OK(tree.Init());
  // Pre-populate even numbers; they must stay visible throughout.
  for (int i = 0; i < 200; i += 2) {
    TXREP_ASSERT_OK(tree.Insert(Value::Int(i), "r"));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> scan_errors{0};
  std::thread reader([&] {
    while (!stop) {
      Result<std::vector<EntryKey>> entries =
          tree.RangeScan(Value::Int(0), Value::Int(199));
      if (!entries.ok()) {
        ++scan_errors;
        continue;
      }
      // All pre-populated evens must always be present, in order.
      std::set<int64_t> seen;
      for (const EntryKey& e : *entries) seen.insert(e.value.AsInt());
      for (int i = 0; i < 200; i += 2) {
        if (!seen.contains(i)) {
          ++scan_errors;
          return;
        }
      }
    }
  });

  // Writer inserts odd numbers, forcing splits under the reader's feet.
  for (int i = 1; i < 200; i += 2) {
    TXREP_ASSERT_OK(tree.Insert(Value::Int(i), "r"));
  }
  stop = true;
  reader.join();
  EXPECT_EQ(scan_errors.load(), 0);
  TXREP_ASSERT_OK(tree.Validate());
  EXPECT_EQ(*tree.EntryCount(), 200u);
}

TEST(BlinkTreeConcurrentTest, DeepTreeCascadingSplitsUnderContention) {
  // Minimal fanout + interleaved key ranges: splits cascade several levels
  // while sibling propagations are in flight — the regression scenario for
  // the key-ordered parent insertion (see InsertIntoParent).
  kv::InMemoryKvNode store;
  BlinkTree tree(&store, "T", "C", {.max_node_keys = 3});
  TXREP_ASSERT_OK(tree.Init());
  constexpr int kThreads = 6, kPerThread = 300;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Interleave: consecutive values belong to different threads, so
        // every leaf is contended by all threads.
        const int64_t v = i * kThreads + t;
        if (!tree.Insert(Value::Int(v), "r").ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  TXREP_ASSERT_OK(tree.Validate());
  EXPECT_EQ(*tree.EntryCount(), kThreads * kPerThread);
  Result<std::vector<EntryKey>> all =
      tree.RangeScanBounds(std::nullopt, std::nullopt);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), static_cast<size_t>(kThreads * kPerThread));
  for (int v = 0; v < kThreads * kPerThread; ++v) {
    ASSERT_EQ((*all)[v].value, Value::Int(v));
  }
}

TEST(BlinkTreeConcurrentTest, MixedInsertRemoveHammer) {
  kv::InMemoryKvNode store;
  BlinkTree tree(&store, "T", "C", {.max_node_keys = 8});
  TXREP_ASSERT_OK(tree.Init());
  // Each thread owns a disjoint key space and inserts/removes randomly;
  // final membership must match each thread's local bookkeeping.
  constexpr int kThreads = 4, kOps = 600, kSpace = 100;
  std::vector<std::set<int>> local(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(100 + t);
      for (int i = 0; i < kOps; ++i) {
        const int v = t * kSpace + static_cast<int>(rng.Uniform(kSpace));
        const std::string rk = "r" + std::to_string(v);
        if (local[t].contains(v)) {
          TXREP_ASSERT_OK(tree.Remove(Value::Int(v), rk));
          local[t].erase(v);
        } else {
          TXREP_ASSERT_OK(tree.Insert(Value::Int(v), rk));
          local[t].insert(v);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  TXREP_ASSERT_OK(tree.Validate());
  size_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected += local[t].size();
    for (int v : local[t]) {
      ASSERT_TRUE(*tree.Contains(Value::Int(v), "r" + std::to_string(v)));
    }
  }
  EXPECT_EQ(*tree.EntryCount(), expected);
}

TEST(BlinkTreeConcurrentTest, ReadersVersusMultiWriteHammer) {
  // The replica-side steady state: optimistic readers scanning the index
  // while writers both mutate the tree and push row noise through the
  // batched apply path into the same store. Runs in rounds; after each
  // round the quiesced tree must pass the structural *and* latch audits
  // (a leaked lock bit or a wrongly-obsoleted node fails here).
  kv::KvNodeOptions node_options;
  node_options.service_time_micros = 10;  // Forces reader/writer overlap.
  kv::InMemoryKvNode store(node_options);
  BlinkTree tree(&store, "T", "C", {.max_node_keys = 4});
  TXREP_ASSERT_OK(tree.Init());

  constexpr int kReaders = 8, kWriters = 2, kRounds = 3, kPerRound = 30;
  constexpr int kSeedEntries = 40;
  for (int i = 0; i < kSeedEntries; ++i) {
    TXREP_ASSERT_OK(tree.Insert(Value::Int(i * 1000), "seed"));
  }

  int inserted = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> writers_live{kWriters};
    std::atomic<int> reader_errors{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int i = 0; i < kPerRound; ++i) {
          const int64_t v =
              (round * kWriters + w) * kPerRound + i + 1;  // Never *1000.
          TXREP_ASSERT_OK(tree.Insert(Value::Int(v * 7 + 3), "r"));
          if (i % 5 == 0) {
            std::vector<kv::KvWrite> noise;
            for (int n = 0; n < 4; ++n) {
              noise.push_back(kv::KvWrite::Put(
                  "row/" + std::to_string(w) + "/" + std::to_string(i + n),
                  "payload"));
            }
            TXREP_ASSERT_OK(store.MultiWrite(noise));
          }
        }
        writers_live.fetch_sub(1);
      });
    }
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&] {
        do {
          Result<std::vector<EntryKey>> scan =
              tree.RangeScanBounds(std::nullopt, std::nullopt);
          if (!scan.ok()) {
            ++reader_errors;
            return;
          }
          for (size_t i = 0; i + 1 < scan->size(); ++i) {
            if (!((*scan)[i] < (*scan)[i + 1])) {
              ++reader_errors;
              return;
            }
          }
          Result<bool> present = tree.Contains(Value::Int(0), "seed");
          if (!present.ok() || !*present) {
            ++reader_errors;
            return;
          }
        } while (writers_live.load() > 0);
      });
    }
    for (auto& t : threads) t.join();
    inserted += kWriters * kPerRound;
    EXPECT_EQ(reader_errors.load(), 0) << "round " << round;
    TXREP_ASSERT_OK(tree.Validate());
    TXREP_ASSERT_OK(check::CheckBlinkTreeInvariants(tree));
    EXPECT_EQ(*tree.EntryCount(),
              static_cast<size_t>(kSeedEntries + inserted));
  }
  const BlinkTreeStats stats = tree.stats();
  // Contention totals are timing-dependent, but the counters must at least
  // be wired (a permanently-zero read path means validation never ran).
  EXPECT_GE(stats.read_retries + stats.read_spins + stats.move_rights +
                stats.read_restarts,
            0);
}

TEST(BlinkTreeConcurrentTest, EntryCountIsSandwichedDuringInserts) {
  // Split-safe counting under fire (the EntryCount double-count fix): every
  // concurrent count must land between the inserts committed before it
  // began and those started before it finished — a split mid-walk may
  // neither double-count migrating entries nor drop them.
  kv::KvNodeOptions node_options;
  node_options.service_time_micros = 5;
  kv::InMemoryKvNode store(node_options);
  BlinkTree tree(&store, "T", "C", {.max_node_keys = 4});
  TXREP_ASSERT_OK(tree.Init());
  constexpr int kSeed = 25, kInserts = 120;
  for (int i = 0; i < kSeed; ++i) {
    TXREP_ASSERT_OK(tree.Insert(Value::Int(-i - 1), "seed"));
  }

  std::atomic<int> started{0}, committed{0};
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::thread counter([&] {
    while (!done.load()) {
      const int before = committed.load();
      Result<size_t> count = tree.EntryCount();
      const int after = started.load();
      if (!count.ok()) {
        ++violations;
        return;
      }
      const size_t lo = static_cast<size_t>(kSeed + before);
      const size_t hi = static_cast<size_t>(kSeed + after);
      if (*count < lo || *count > hi) {
        ADD_FAILURE() << "count " << *count << " outside [" << lo << ", "
                      << hi << "]";
        ++violations;
        return;
      }
    }
  });
  for (int i = 0; i < kInserts; ++i) {
    started.fetch_add(1);
    TXREP_ASSERT_OK(tree.Insert(Value::Int(i), "r"));
    committed.fetch_add(1);
  }
  done = true;
  counter.join();
  EXPECT_EQ(violations.load(), 0);
  TXREP_ASSERT_OK(check::CheckBlinkTreeInvariants(tree));
  EXPECT_EQ(*tree.EntryCount(), static_cast<size_t>(kSeed + kInserts));
}

TEST(BlinkTreeConcurrentTest, ReadersSurviveRootChurnFromEmpty) {
  // Minimal fanout from an empty tree: the root id changes several times in
  // quick succession while readers are mid-descent — the shrunk/regrown
  // root scenario DescendToLevel must absorb without surfacing errors.
  kv::InMemoryKvNode store;
  BlinkTree tree(&store, "T", "C", {.max_node_keys = 2});
  TXREP_ASSERT_OK(tree.Init());

  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        Result<std::vector<EntryKey>> scan =
            tree.RangeScanBounds(std::nullopt, std::nullopt);
        if (!scan.ok()) ++reader_errors;
        Result<size_t> count = tree.EntryCount();
        if (!count.ok()) ++reader_errors;
      }
    });
  }
  constexpr int kInserts = 200;
  for (int i = 0; i < kInserts; ++i) {
    TXREP_ASSERT_OK(tree.Insert(Value::Int(i), "r"));
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(reader_errors.load(), 0);
  TXREP_ASSERT_OK(check::CheckBlinkTreeInvariants(tree));
  EXPECT_EQ(*tree.EntryCount(), static_cast<size_t>(kInserts));
}

}  // namespace
}  // namespace txrep::blink
