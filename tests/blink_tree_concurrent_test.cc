#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "blink/blink_tree.h"
#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "kv/kv_types.h"
#include "test_util.h"

namespace txrep::blink {
namespace {

using rel::Value;

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

TEST(BlinkTreeConcurrentTest, ReadersVersusMultiWriteHammer) {
  // The replica-side steady state: lock-free readers scanning the index
  // while the writer both mutates the tree and pushes row noise through the
  // batched apply path into the same store. Runs in rounds; after each
  // round the quiesced tree must pass the structural audit.
  kv::KvNodeOptions node_options;
  node_options.service_time_micros = 10;  // Forces reader/writer overlap.
  kv::InMemoryKvNode store(node_options);
  BlinkTree tree(&store, "T", "C", {.max_node_keys = 4});
  TXREP_ASSERT_OK(tree.Init());

  constexpr int kReaders = 8, kRounds = 3, kPerRound = 60;
  constexpr int kSeedEntries = 40;
  for (int i = 0; i < kSeedEntries; ++i) {
    TXREP_ASSERT_OK(tree.Insert(Value::Int(i * 1000), "seed"));
  }

  int inserted = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<bool> writer_live{true};
    std::atomic<int> reader_errors{0};
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      for (int i = 0; i < kPerRound; ++i) {
        const int64_t v = round * kPerRound + i + 1;  // Never *1000.
        TXREP_ASSERT_OK(tree.Insert(Value::Int(v * 7 + 3), "r"));
        if (i % 5 == 0) {
          std::vector<kv::KvWrite> noise;
          for (int n = 0; n < 4; ++n) {
            noise.push_back(kv::KvWrite::Put(
                "row/" + std::to_string(round) + "/" + std::to_string(i + n),
                "payload"));
          }
          TXREP_ASSERT_OK(store.MultiWrite(noise));
        }
      }
      writer_live = false;
    });
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
        } while (writer_live.load());
      });
    }
    for (auto& t : threads) t.join();
    inserted += kPerRound;
    EXPECT_EQ(reader_errors.load(), 0) << "round " << round;
    TXREP_ASSERT_OK(tree.Validate());
    EXPECT_EQ(*tree.EntryCount(),
              static_cast<size_t>(kSeedEntries + inserted));
  }
  // On a live store every node a reader follows already exists.
  EXPECT_EQ(tree.stats().missing_nodes, 0);
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
  TXREP_ASSERT_OK(tree.Validate());
  EXPECT_EQ(*tree.EntryCount(), static_cast<size_t>(kSeed + kInserts));
}

TEST(BlinkTreeConcurrentTest, ReadersSurviveRootChurnFromEmpty) {
  // Minimal fanout from an empty tree: the root id changes several times in
  // quick succession while readers are mid-descent; a stale root is still a
  // correct entry point, so no reader may surface an error.
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
  TXREP_ASSERT_OK(tree.Validate());
  EXPECT_EQ(*tree.EntryCount(), static_cast<size_t>(kInserts));
}

}  // namespace
}  // namespace txrep::blink
