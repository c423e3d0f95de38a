#include "core/txn_buffer.h"

#include <string>
#include <unordered_set>
#include <vector>

#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "test_util.h"

namespace txrep::core {
namespace {

class TxnBufferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TXREP_ASSERT_OK(base_.Put("existing", "base-value"));
    TXREP_ASSERT_OK(base_.Put("other", "other-value"));
  }
  kv::InMemoryKvNode base_;
};

TEST_F(TxnBufferTest, ReadThroughRecordsReadSet) {
  TxnBuffer buffer(&base_);
  EXPECT_EQ(*buffer.Get("existing"), "base-value");
  EXPECT_TRUE(buffer.read_set().contains("existing"));
  EXPECT_TRUE(buffer.write_set().empty());
}

TEST_F(TxnBufferTest, NotFoundReadsAreStillReads) {
  TxnBuffer buffer(&base_);
  EXPECT_TRUE(buffer.Get("missing").status().IsNotFound());
  EXPECT_TRUE(buffer.read_set().contains("missing"));
}

TEST_F(TxnBufferTest, ReadCachePreventsSecondBaseAccess) {
  TxnBuffer buffer(&base_);
  (void)buffer.Get("existing");
  (void)buffer.Get("existing");
  (void)buffer.Get("missing");
  (void)buffer.Get("missing");
  EXPECT_EQ(base_.stats().gets, 2);  // One per distinct key.
}

TEST_F(TxnBufferTest, WritesStayBuffered) {
  TxnBuffer buffer(&base_);
  TXREP_ASSERT_OK(buffer.Put("new", "v"));
  EXPECT_FALSE(base_.Contains("new"));  // Paper: buffer until commit.
  EXPECT_EQ(*buffer.Get("new"), "v");   // Own writes visible.
  EXPECT_TRUE(buffer.write_set().contains("new"));
  EXPECT_FALSE(buffer.read_set().contains("new"));  // Own-write read ≠ read.
}

TEST_F(TxnBufferTest, OverwriteOfBaseKeyShadows) {
  TxnBuffer buffer(&base_);
  TXREP_ASSERT_OK(buffer.Put("existing", "shadow"));
  EXPECT_EQ(*buffer.Get("existing"), "shadow");
  EXPECT_EQ(*base_.Get("existing"), "base-value");
}

TEST_F(TxnBufferTest, TombstoneHidesBaseKey) {
  TxnBuffer buffer(&base_);
  TXREP_ASSERT_OK(buffer.Delete("existing"));
  EXPECT_TRUE(buffer.Get("existing").status().IsNotFound());
  EXPECT_FALSE(buffer.Contains("existing"));
  EXPECT_TRUE(base_.Contains("existing"));
  EXPECT_TRUE(buffer.write_set().contains("existing"));
}

TEST_F(TxnBufferTest, PutAfterDeleteResurrects) {
  TxnBuffer buffer(&base_);
  TXREP_ASSERT_OK(buffer.Delete("existing"));
  TXREP_ASSERT_OK(buffer.Put("existing", "back"));
  EXPECT_EQ(*buffer.Get("existing"), "back");
}

TEST_F(TxnBufferTest, ApplyToPublishesFinalState) {
  TxnBuffer buffer(&base_);
  TXREP_ASSERT_OK(buffer.Put("a", "1"));
  TXREP_ASSERT_OK(buffer.Put("a", "2"));       // Final value wins.
  TXREP_ASSERT_OK(buffer.Delete("existing"));
  TXREP_ASSERT_OK(buffer.Put("b", "3"));
  TXREP_ASSERT_OK(buffer.ApplyTo(&base_));
  EXPECT_EQ(*base_.Get("a"), "2");
  EXPECT_EQ(*base_.Get("b"), "3");
  EXPECT_FALSE(base_.Contains("existing"));
  EXPECT_EQ(buffer.WriteCount(), 3u);
}

TEST_F(TxnBufferTest, ApplyToIsIdempotent) {
  TxnBuffer buffer(&base_);
  TXREP_ASSERT_OK(buffer.Put("a", "1"));
  TXREP_ASSERT_OK(buffer.Delete("other"));
  TXREP_ASSERT_OK(buffer.ApplyTo(&base_));
  TXREP_ASSERT_OK(buffer.ApplyTo(&base_));
  EXPECT_EQ(*base_.Get("a"), "1");
  EXPECT_FALSE(base_.Contains("other"));
}

TEST_F(TxnBufferTest, DumpMergesOverlay) {
  TxnBuffer buffer(&base_);
  TXREP_ASSERT_OK(buffer.Put("aaa", "new"));       // Before "existing".
  TXREP_ASSERT_OK(buffer.Put("existing", "mod"));  // Overwrites.
  TXREP_ASSERT_OK(buffer.Delete("other"));         // Hides.
  TXREP_ASSERT_OK(buffer.Put("zzz", "tail"));      // After everything.
  kv::StoreDump dump = buffer.Dump();
  ASSERT_EQ(dump.size(), 3u);
  EXPECT_EQ(dump[0], (std::pair<kv::Key, kv::Value>{"aaa", "new"}));
  EXPECT_EQ(dump[1], (std::pair<kv::Key, kv::Value>{"existing", "mod"}));
  EXPECT_EQ(dump[2], (std::pair<kv::Key, kv::Value>{"zzz", "tail"}));
}

TEST_F(TxnBufferTest, SizeAccountsForOverlay) {
  TxnBuffer buffer(&base_);
  EXPECT_EQ(buffer.Size(), 2u);
  TXREP_ASSERT_OK(buffer.Put("new", "v"));
  EXPECT_EQ(buffer.Size(), 3u);
  TXREP_ASSERT_OK(buffer.Delete("existing"));
  EXPECT_EQ(buffer.Size(), 2u);
}

TEST_F(TxnBufferTest, ErrorsFromBasePropagate) {
  kv::KvNodeOptions options;
  options.failure_rate = 1.0;
  kv::InMemoryKvNode failing(options);
  TxnBuffer buffer(&failing);
  EXPECT_TRUE(buffer.Get("k").status().IsUnavailable());
  // But buffered writes never touch the base.
  TXREP_ASSERT_OK(buffer.Put("k", "v"));
  EXPECT_TRUE(buffer.ApplyTo(&failing).IsUnavailable());
}

TEST_F(TxnBufferTest, PrefetchIsOneRoundTripAndNotYetARead) {
  TxnBuffer buffer(&base_);
  const std::vector<kv::Key> keys = {"existing", "other"};
  buffer.Prefetch(keys);
  EXPECT_EQ(base_.stats().batches, 1);
  EXPECT_EQ(base_.stats().gets, 2);
  EXPECT_TRUE(buffer.read_set().empty());  // Fetched, not read.
  EXPECT_EQ(*buffer.Get("existing"), "base-value");
  EXPECT_TRUE(buffer.read_set().contains("existing"));
  EXPECT_FALSE(buffer.read_set().contains("other"));
  EXPECT_EQ(base_.stats().gets, 2);  // Served from the prefetch.
}

TEST_F(TxnBufferTest, PrefetchedNotFoundIsServedAsNotFound) {
  TxnBuffer buffer(&base_);
  const std::vector<kv::Key> keys = {"missing"};
  buffer.Prefetch(keys);
  EXPECT_TRUE(buffer.Get("missing").status().IsNotFound());
  EXPECT_TRUE(buffer.Get("missing").status().IsNotFound());  // Now cached.
  EXPECT_TRUE(buffer.read_set().contains("missing"));
  EXPECT_EQ(base_.stats().gets, 1);
}

TEST_F(TxnBufferTest, UnavailablePrefetchEntryFallsBackToGet) {
  TxnBuffer buffer(&base_);
  const std::vector<kv::Key> keys = {"existing"};
  base_.set_failure_rate(1.0);
  buffer.Prefetch(keys);  // Never fails the transaction.
  base_.set_failure_rate(0.0);
  EXPECT_TRUE(buffer.read_set().empty());
  EXPECT_EQ(*buffer.Get("existing"), "base-value");  // Re-read by Get.
  EXPECT_EQ(base_.stats().gets, 1);
  EXPECT_EQ(base_.stats().injected_failures, 1);
}

TEST_F(TxnBufferTest, OwnWritesBeatPrefetchedValues) {
  TxnBuffer buffer(&base_);
  const std::vector<kv::Key> keys = {"existing", "other"};
  buffer.Prefetch(keys);
  TXREP_ASSERT_OK(buffer.Put("existing", "mine"));
  TXREP_ASSERT_OK(buffer.Delete("other"));
  EXPECT_EQ(*buffer.Get("existing"), "mine");
  EXPECT_TRUE(buffer.Get("other").status().IsNotFound());
  EXPECT_TRUE(buffer.read_set().empty());  // Own-write reads are not reads.
}

TEST_F(TxnBufferTest, ReadCacheBeatsLaterPrefetch) {
  TxnBuffer buffer(&base_);
  EXPECT_EQ(*buffer.Get("existing"), "base-value");
  TXREP_ASSERT_OK(base_.Put("existing", "newer"));
  const std::vector<kv::Key> keys = {"existing"};
  buffer.Prefetch(keys);
  EXPECT_EQ(*buffer.Get("existing"), "base-value");  // Repeatable read.
}

TEST_F(TxnBufferTest, DiscardedPrefetchIsReadFromBase) {
  TxnBuffer buffer(&base_);
  const std::vector<kv::Key> keys = {"existing"};
  buffer.Prefetch(keys);
  buffer.DiscardUnreadPrefetch();
  TXREP_ASSERT_OK(base_.Put("existing", "newer"));
  EXPECT_EQ(*buffer.Get("existing"), "newer");
  EXPECT_EQ(base_.stats().gets, 2);
}

TEST_F(TxnBufferTest, ReleaseValuesKeepsKeySets) {
  TxnBuffer buffer(&base_);
  (void)buffer.Get("existing");
  TXREP_ASSERT_OK(buffer.Put("a", "1"));
  TXREP_ASSERT_OK(buffer.Delete("other"));
  TXREP_ASSERT_OK(buffer.ApplyTo(&base_));
  buffer.ReleaseValues();
  EXPECT_EQ(buffer.WriteCount(), 0u);
  EXPECT_TRUE(buffer.WriteBatch().empty());
  EXPECT_EQ(buffer.read_set(), (std::unordered_set<std::string>{"existing"}));
  EXPECT_EQ(buffer.write_set(), (std::unordered_set<std::string>{"a", "other"}));
}

}  // namespace
}  // namespace txrep::core
