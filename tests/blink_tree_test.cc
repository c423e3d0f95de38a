#include "blink/blink_tree.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "codec/kv_keys.h"
#include "common/clock.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "test_util.h"

namespace txrep::blink {

/// Test-only window into BlinkTree's private traversal (declared friend).
struct BlinkTreeTestPeer {
  static Result<uint64_t> DescendToLevel(BlinkTree& tree, const EntryKey& key,
                                         uint32_t target_level) {
    return tree.DescendToLevel(key, target_level);
  }
};

namespace {

using rel::Value;

class BlinkTreeTest : public ::testing::Test {
 protected:
  BlinkTreeTest() : tree_(&store_, "ITEM", "I_COST", {.max_node_keys = 4}) {
    // Tiny fanout so splits happen constantly.
  }

  void SetUp() override { TXREP_ASSERT_OK(tree_.Init()); }

  kv::InMemoryKvNode store_;
  BlinkTree tree_;
};

TEST_F(BlinkTreeTest, InitIsIdempotent) {
  TXREP_ASSERT_OK(tree_.Init());
  TXREP_ASSERT_OK(tree_.Insert(Value::Int(1), "r1"));
  TXREP_ASSERT_OK(tree_.Init());  // Must not wipe existing data.
  EXPECT_EQ(*tree_.EntryCount(), 1u);
}

TEST_F(BlinkTreeTest, InsertAndContains) {
  TXREP_ASSERT_OK(tree_.Insert(Value::Int(5), "r5"));
  EXPECT_TRUE(*tree_.Contains(Value::Int(5), "r5"));
  EXPECT_FALSE(*tree_.Contains(Value::Int(5), "other"));
  EXPECT_FALSE(*tree_.Contains(Value::Int(6), "r5"));
}

TEST_F(BlinkTreeTest, DuplicateInsertRejected) {
  TXREP_ASSERT_OK(tree_.Insert(Value::Int(5), "r5"));
  EXPECT_TRUE(tree_.Insert(Value::Int(5), "r5").IsAlreadyExists());
}

TEST_F(BlinkTreeTest, DuplicateValuesDistinctRowKeys) {
  TXREP_ASSERT_OK(tree_.Insert(Value::Int(5), "a"));
  TXREP_ASSERT_OK(tree_.Insert(Value::Int(5), "b"));
  TXREP_ASSERT_OK(tree_.Insert(Value::Int(5), "c"));
  Result<std::vector<EntryKey>> entries =
      tree_.RangeScan(Value::Int(5), Value::Int(5));
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 3u);
}

TEST_F(BlinkTreeTest, ManyInsertsSplitAndStayValid) {
  for (int i = 0; i < 200; ++i) {
    TXREP_ASSERT_OK(tree_.Insert(Value::Int(i), "r" + std::to_string(i)));
  }
  TXREP_ASSERT_OK(tree_.Validate());
  EXPECT_EQ(*tree_.EntryCount(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(*tree_.Contains(Value::Int(i), "r" + std::to_string(i)))
        << "missing " << i;
  }
}

TEST_F(BlinkTreeTest, ReverseAndShuffledInsertOrders) {
  Random rng(3);
  std::vector<int> ids(300);
  for (int i = 0; i < 300; ++i) ids[i] = i;
  rng.Shuffle(ids);
  for (int id : ids) {
    TXREP_ASSERT_OK(tree_.Insert(Value::Int(id), "r" + std::to_string(id)));
  }
  TXREP_ASSERT_OK(tree_.Validate());
  Result<std::vector<EntryKey>> all =
      tree_.RangeScanBounds(std::nullopt, std::nullopt);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 300u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ((*all)[i].value, Value::Int(i));  // Sorted output.
  }
}

TEST_F(BlinkTreeTest, RangeScanBoundsInclusive) {
  for (int i = 0; i < 50; ++i) {
    TXREP_ASSERT_OK(tree_.Insert(Value::Int(i * 2), "r" + std::to_string(i)));
  }
  Result<std::vector<EntryKey>> entries =
      tree_.RangeScan(Value::Int(10), Value::Int(20));
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 6u);  // 10,12,14,16,18,20.
  EXPECT_EQ(entries->front().value, Value::Int(10));
  EXPECT_EQ(entries->back().value, Value::Int(20));
}

TEST_F(BlinkTreeTest, RangeScanOpenBounds) {
  for (int i = 1; i <= 30; ++i) {
    TXREP_ASSERT_OK(tree_.Insert(Value::Int(i), "r" + std::to_string(i)));
  }
  EXPECT_EQ(tree_.RangeScanBounds(std::nullopt, Value::Int(10))->size(), 10u);
  EXPECT_EQ(tree_.RangeScanBounds(Value::Int(21), std::nullopt)->size(), 10u);
  EXPECT_EQ(tree_.RangeScanBounds(std::nullopt, std::nullopt)->size(), 30u);
}

TEST_F(BlinkTreeTest, EmptyRangeAndInvertedBounds) {
  TXREP_ASSERT_OK(tree_.Insert(Value::Int(5), "r"));
  EXPECT_TRUE(tree_.RangeScan(Value::Int(10), Value::Int(20))->empty());
  EXPECT_TRUE(tree_.RangeScan(Value::Int(20), Value::Int(10))->empty());
}

TEST_F(BlinkTreeTest, RemoveAndRescan) {
  for (int i = 0; i < 100; ++i) {
    TXREP_ASSERT_OK(tree_.Insert(Value::Int(i), "r" + std::to_string(i)));
  }
  for (int i = 0; i < 100; i += 2) {
    TXREP_ASSERT_OK(tree_.Remove(Value::Int(i), "r" + std::to_string(i)));
  }
  TXREP_ASSERT_OK(tree_.Validate());
  EXPECT_EQ(*tree_.EntryCount(), 50u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*tree_.Contains(Value::Int(i), "r" + std::to_string(i)),
              i % 2 == 1);
  }
}

TEST_F(BlinkTreeTest, RemoveMissingIsNotFound) {
  EXPECT_TRUE(tree_.Remove(Value::Int(1), "r").IsNotFound());
  TXREP_ASSERT_OK(tree_.Insert(Value::Int(1), "r"));
  EXPECT_TRUE(tree_.Remove(Value::Int(1), "other").IsNotFound());
}

TEST_F(BlinkTreeTest, DrainToEmptyAndRefill) {
  for (int i = 0; i < 60; ++i) {
    TXREP_ASSERT_OK(tree_.Insert(Value::Int(i), "r"));
  }
  for (int i = 0; i < 60; ++i) {
    TXREP_ASSERT_OK(tree_.Remove(Value::Int(i), "r"));
  }
  EXPECT_EQ(*tree_.EntryCount(), 0u);
  TXREP_ASSERT_OK(tree_.Validate());
  // Empty leaves remain (no merging); scans must skip them.
  EXPECT_TRUE(tree_.RangeScanBounds(std::nullopt, std::nullopt)->empty());
  // Refill through the hollowed structure.
  for (int i = 0; i < 60; ++i) {
    TXREP_ASSERT_OK(tree_.Insert(Value::Int(i), "r"));
  }
  EXPECT_EQ(*tree_.EntryCount(), 60u);
  TXREP_ASSERT_OK(tree_.Validate());
}

TEST_F(BlinkTreeTest, StringValues) {
  BlinkTree tree(&store_, "CUSTOMER", "C_UNAME", {.max_node_keys = 4});
  TXREP_ASSERT_OK(tree.Init());
  for (int i = 0; i < 50; ++i) {
    TXREP_ASSERT_OK(
        tree.Insert(Value::Str("user" + std::to_string(i)), "rk"));
  }
  TXREP_ASSERT_OK(tree.Validate());
  Result<std::vector<EntryKey>> entries =
      tree.RangeScan(Value::Str("user10"), Value::Str("user19"));
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 10u);  // user10..user19 lexicographically.
}

TEST_F(BlinkTreeTest, TwoTreesOnOneStoreAreIsolated) {
  BlinkTree other(&store_, "ITEM", "I_STOCK", {.max_node_keys = 4});
  TXREP_ASSERT_OK(other.Init());
  TXREP_ASSERT_OK(tree_.Insert(Value::Int(1), "a"));
  TXREP_ASSERT_OK(other.Insert(Value::Int(99), "b"));
  EXPECT_EQ(*tree_.EntryCount(), 1u);
  EXPECT_EQ(*other.EntryCount(), 1u);
  EXPECT_FALSE(*tree_.Contains(Value::Int(99), "b"));
}

TEST_F(BlinkTreeTest, LargeFanoutSingleNodePath) {
  BlinkTree big(&store_, "T", "C", {.max_node_keys = 1000});
  TXREP_ASSERT_OK(big.Init());
  for (int i = 0; i < 500; ++i) {
    TXREP_ASSERT_OK(big.Insert(Value::Int(i), "r"));
  }
  TXREP_ASSERT_OK(big.Validate());
  EXPECT_EQ(*big.EntryCount(), 500u);
}

// --- bugfix regressions ------------------------------------------------------

/// Plants a hand-crafted tree image directly into `store` (bypassing the
/// tree's write path) so tests can replay exact torn/wedged snapshots.
void PlantNode(kv::InMemoryKvNode& store, const std::string& table,
               const std::string& column, uint64_t id, const BlinkNode& node) {
  TXREP_ASSERT_OK(
      store.Put(codec::BlinkNodeKey(table, column, id), EncodeBlinkNode(node)));
}

void PlantMeta(kv::InMemoryKvNode& store, const std::string& table,
               const std::string& column, const BlinkMeta& meta) {
  TXREP_ASSERT_OK(
      store.Put(codec::BlinkMetaKey(table, column), EncodeBlinkMeta(meta)));
}

TEST(BlinkTreeWedgedSnapshotTest, SplitAgainstMissingParentLevelAborts) {
  // A stale buffered snapshot caught mid-root-grow: the leaf level already
  // has two nodes but no parent level exists, and — reads being cached —
  // none can ever appear from this snapshot's point of view. A split that
  // needs the parent must give up with Aborted naming the node (so the TM's
  // restart machinery re-executes against fresher state), not hang in the
  // parent-location retry loop.
  kv::InMemoryKvNode store;
  PlantMeta(store, "T", "C", BlinkMeta{.root_id = 1, .next_id = 4});
  BlinkNode left;
  left.has_high_key = true;
  left.high_key = EntryKey{Value::Int(20), ""};
  left.right_id = 2;
  left.entries = {EntryKey{Value::Int(10), "r10"}};
  PlantNode(store, "T", "C", 1, left);
  BlinkNode right;  // Rightmost leaf, already at max_node_keys.
  right.entries = {EntryKey{Value::Int(30), "r30"},
                   EntryKey{Value::Int(50), "r50"},
                   EntryKey{Value::Int(70), "r70"}};
  PlantNode(store, "T", "C", 2, right);

  BlinkTreeOptions options;
  options.max_node_keys = 3;
  options.max_parent_retries = 4;  // Keep the bounded wait short.
  BlinkTree tree(&store, "T", "C", options);

  const Status status = tree.Insert(Value::Int(40), "r40");
  EXPECT_TRUE(status.IsAborted()) << status.ToString();
  EXPECT_NE(status.ToString().find("parent of node 2"), std::string::npos)
      << status.ToString();
  // The split itself landed before the propagation wedged; a retry on a
  // fresh snapshot would repair the parent level. The entry must be there.
  EXPECT_TRUE(*tree.Contains(Value::Int(40), "r40"));
}

TEST(BlinkTreeTornImageTest, EntryCountIgnoresEntriesAboveHighKey) {
  // A split-torn leaf image: the left node still holds its pre-split entry
  // list, but its high key and right link already point at the sibling that
  // owns the tail. Entries 6..10 appear in both nodes; the count must
  // attribute each entry to exactly one owner (15 = the double-count bug).
  kv::InMemoryKvNode store;
  PlantMeta(store, "T", "C", BlinkMeta{.root_id = 1, .next_id = 3});
  BlinkNode left;
  left.has_high_key = true;
  left.high_key = EntryKey{Value::Int(5), "r5"};
  left.right_id = 2;
  for (int i = 1; i <= 10; ++i) {
    left.entries.push_back(EntryKey{Value::Int(i), "r" + std::to_string(i)});
  }
  PlantNode(store, "T", "C", 1, left);
  BlinkNode right;
  for (int i = 6; i <= 10; ++i) {
    right.entries.push_back(EntryKey{Value::Int(i), "r" + std::to_string(i)});
  }
  PlantNode(store, "T", "C", 2, right);

  BlinkTree tree(&store, "T", "C", {.max_node_keys = 32});
  EXPECT_EQ(*tree.EntryCount(), 10u);
  // The scan applies the same ownership rule: 10 strictly ascending entries,
  // none emitted twice.
  Result<std::vector<EntryKey>> all =
      tree.RangeScanBounds(std::nullopt, std::nullopt);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 10u);
  for (size_t i = 0; i + 1 < all->size(); ++i) {
    EXPECT_TRUE((*all)[i] < (*all)[i + 1]) << "duplicate at index " << i;
  }
}

TEST(BlinkTreeStitchedSnapshotTest, ChildPointerBackUpTheTreeAborts) {
  // A buffered view stitched from two tree shapes: root 1 (level 1) routes to
  // node 2, whose image from another moment claims level 1 too and routes
  // back to node 1 — a cycle no consistent store can hold. Every walk must end
  // in Aborted, which the TM answers by re-executing on a fresh snapshot. The
  // pre-fix descent followed the cycle forever, growing its path until
  // allocation failed.
  kv::InMemoryKvNode store;
  PlantMeta(store, "T", "C", BlinkMeta{.root_id = 1, .next_id = 3});
  BlinkNode root;
  root.level = 1;
  root.separators = {EntryKey{Value::Int(50), ""}};
  root.children = {2, 2};
  PlantNode(store, "T", "C", 1, root);
  BlinkNode stitched = root;
  stitched.children = {1, 1};
  PlantNode(store, "T", "C", 2, stitched);

  BlinkTreeOptions options;
  options.max_read_restarts = 4;
  options.max_parent_retries = 4;  // Keep the bounded waits short.
  BlinkTree tree(&store, "T", "C", options);

  const EntryKey key{Value::Int(10), "r10"};
  EXPECT_TRUE(tree.Contains(key.value, key.row_key).status().IsAborted());
  EXPECT_TRUE(tree.Insert(key.value, key.row_key).IsAborted());
  EXPECT_TRUE(tree.RangeScan(Value::Int(0), Value::Int(100))
                  .status()
                  .IsAborted());
  EXPECT_TRUE(tree.RangeScanBounds(std::nullopt, std::nullopt)
                  .status()
                  .IsAborted());
  EXPECT_TRUE(tree.EntryCount().status().IsAborted());
  EXPECT_TRUE(
      BlinkTreeTestPeer::DescendToLevel(tree, key, 0).status().IsAborted());
}

TEST(BlinkTreeRootGrowthTest, DescendToLevelWaitsForRootGrowth) {
  // A writer needs the parent level of a node whose split outran the root's
  // growth: DescendToLevel starts while the root is still a lone leaf and
  // must absorb the wait internally (bounded) instead of erroring out —
  // the pre-fix code returned Internal the moment it saw a too-shallow root.
  kv::InMemoryKvNode store;
  BlinkTree tree(&store, "T", "C", {.max_node_keys = 2});
  TXREP_ASSERT_OK(tree.Init());

  std::thread grower([&] {
    SleepForMicros(2000);  // Guarantee the descent starts against a leaf root.
    for (int i = 0; i <= 20; ++i) {
      TXREP_ASSERT_OK(tree.Insert(Value::Int(i), "r"));
    }
  });
  Result<uint64_t> parent = BlinkTreeTestPeer::DescendToLevel(
      tree, EntryKey{Value::Int(10), "r"}, 1);
  grower.join();
  TXREP_ASSERT_OK(parent.status());
  TXREP_ASSERT_OK(tree.Validate());
  EXPECT_EQ(*tree.EntryCount(), 21u);
}

}  // namespace
}  // namespace txrep::blink
