#include "core/transaction_manager.h"

#include "check/mutex.h"
#include "codec/kv_keys.h"
#include "codec/row_codec.h"
#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "test_util.h"

namespace txrep::core {
namespace {

using rel::Value;

class TmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"T", "U"}) {
      Result<rel::TableSchema> schema =
          rel::TableSchema::Create(name,
                                   {{"ID", rel::ValueType::kInt64},
                                    {"V", rel::ValueType::kInt64}},
                                   "ID");
      ASSERT_TRUE(schema.ok());
      TXREP_ASSERT_OK(catalog_.AddTable(*schema));
    }
    translator_ = std::make_unique<qt::QueryTranslator>(&catalog_);
  }

  rel::LogTransaction InsertTxn(int64_t id, int64_t v,
                                const char* table = "T") {
    rel::LogTransaction txn;
    txn.ops.push_back(rel::LogOp{rel::LogOpType::kInsert, table,
                                 Value::Int(id),
                                 {Value::Int(id), Value::Int(v)}});
    return txn;
  }
  rel::LogTransaction UpdateTxn(int64_t id, int64_t v) {
    rel::LogTransaction txn;
    txn.ops.push_back(rel::LogOp{rel::LogOpType::kUpdate, "T", Value::Int(id),
                                 {Value::Int(id), Value::Int(v)}});
    return txn;
  }

  int64_t ReadV(kv::KvStore& store, int64_t id) {
    Result<kv::Value> bytes = store.Get(codec::RowKey("T", Value::Int(id)));
    if (!bytes.ok()) return -1;
    return (*codec::DecodeRow(*bytes))[1].AsInt();
  }

  rel::Catalog catalog_;
  std::unique_ptr<qt::QueryTranslator> translator_;
};

TEST_F(TmTest, SingleTransactionApplies) {
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  auto handle = tm.SubmitUpdate(InsertTxn(1, 10));
  TXREP_ASSERT_OK(handle->Wait());
  EXPECT_EQ(ReadV(store, 1), 10);
  EXPECT_EQ(handle->state, TxnState::kCompleted);
}

TEST_F(TmTest, WriteSetAppliesAsOneMultiWrite) {
  // The bottom pool publishes a committed write set with one MultiWrite,
  // however large it is; the node counts every Multi* call it serves.
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  rel::LogTransaction txn;
  for (int64_t id = 1; id <= 40; ++id) {
    txn.ops.push_back(rel::LogOp{rel::LogOpType::kInsert, "T", Value::Int(id),
                                 {Value::Int(id), Value::Int(id)}});
  }
  TXREP_ASSERT_OK(tm.SubmitUpdate(std::move(txn))->Wait());
  const kv::KvStoreStats stats = store.stats();
  EXPECT_EQ(stats.puts, 40);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(ReadV(store, 40), 40);
}

/// Forwards to an in-memory node, but holds the first MultiWrite (the first
/// committed transaction's apply) until Release().
class HoldFirstApplyStore : public kv::KvStore {
 public:
  Status Put(const kv::Key& key, const kv::Value& value) override {
    return base_.Put(key, value);
  }
  Result<kv::Value> Get(const kv::Key& key) override { return base_.Get(key); }
  Status Delete(const kv::Key& key) override { return base_.Delete(key); }
  Status MultiWrite(std::span<const kv::KvWrite> batch,
                    size_t* applied) override {
    {
      check::MutexLock lock(&mu_);
      if (!first_seen_) {
        first_seen_ = true;
        cv_.NotifyAll();
        while (!released_) cv_.Wait();
      }
    }
    return base_.MultiWrite(batch, applied);
  }
  bool Contains(const kv::Key& key) override { return base_.Contains(key); }
  size_t Size() override { return base_.Size(); }
  kv::StoreDump Dump() override { return base_.Dump(); }

  /// Blocks until the first MultiWrite is being held.
  void AwaitHeld() {
    check::MutexLock lock(&mu_);
    while (!first_seen_) cv_.Wait();
  }
  void Release() {
    check::MutexLock lock(&mu_);
    released_ = true;
    cv_.NotifyAll();
  }

 private:
  kv::InMemoryKvNode base_;
  check::Mutex mu_{"test.hold_first_apply"};
  check::CondVar cv_{&mu_};
  bool first_seen_ TXREP_GUARDED_BY(mu_) = false;
  bool released_ TXREP_GUARDED_BY(mu_) = false;
};

TEST_F(TmTest, EveryCommittedPredecessorCostsOneConflictCheck) {
  // The second transaction is evaluated while the first is COMMITTED but not
  // yet applied. Their tables differ, so the exact key-set check runs once
  // and finds no conflict.
  HoldFirstApplyStore store;
  TransactionManager tm(&store, translator_.get(), {});
  auto first = tm.SubmitUpdate(InsertTxn(1, 10, "T"));
  store.AwaitHeld();
  auto second = tm.SubmitUpdate(InsertTxn(1, 20, "U"));
  const Status second_status = second->Wait();
  const TmStats stats = tm.stats();
  store.Release();  // Before any assertion: the TM's teardown drains.
  TXREP_ASSERT_OK(second_status);
  EXPECT_EQ(stats.conflict_checks, 1);
  EXPECT_EQ(stats.conflicts, 0);
  TXREP_ASSERT_OK(first->Wait());
  EXPECT_EQ(ReadV(store, 1), 10);
}

TEST_F(TmTest, ManyIndependentTransactions) {
  kv::InMemoryKvNode store;
  TmOptions options;
  options.top_threads = 8;
  options.bottom_threads = 8;
  TransactionManager tm(&store, translator_.get(), options);
  for (int i = 1; i <= 200; ++i) {
    tm.SubmitUpdate(InsertTxn(i, i * 2));
  }
  TXREP_ASSERT_OK(tm.WaitIdle());
  for (int i = 1; i <= 200; ++i) {
    ASSERT_EQ(ReadV(store, i), i * 2);
  }
  TmStats stats = tm.stats();
  EXPECT_EQ(stats.submitted, 200);
  EXPECT_EQ(stats.completed, 200);
}

TEST_F(TmTest, WriteWriteChainKeepsOrder) {
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  tm.SubmitUpdate(InsertTxn(1, 0));
  for (int v = 1; v <= 50; ++v) {
    tm.SubmitUpdate(UpdateTxn(1, v));  // All conflict on row T_1.
  }
  TXREP_ASSERT_OK(tm.WaitIdle());
  EXPECT_EQ(ReadV(store, 1), 50);  // Last sequence wins — order respected.
}

TEST_F(TmTest, ConflictsAreCountedOnHotKeys) {
  kv::KvNodeOptions node_options;
  node_options.service_time_micros = 500;  // Widen the race window.
  kv::InMemoryKvNode store(node_options);
  TmOptions options;
  options.top_threads = 8;
  options.bottom_threads = 8;
  TransactionManager tm(&store, translator_.get(), options);
  tm.SubmitUpdate(InsertTxn(1, 0));
  for (int v = 1; v <= 30; ++v) {
    tm.SubmitUpdate(UpdateTxn(1, v));
  }
  TXREP_ASSERT_OK(tm.WaitIdle());
  TmStats stats = tm.stats();
  EXPECT_GT(stats.conflicts, 0);
  EXPECT_EQ(stats.restarts, stats.conflicts);  // No transient errors here.
  EXPECT_EQ(ReadV(store, 1), 30);
}

TEST_F(TmTest, ReadOnlyTransactionSeesSequencePointState) {
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  tm.SubmitUpdate(InsertTxn(1, 111));
  auto read_value = std::make_shared<int64_t>(-1);
  auto ro = tm.SubmitReadOnly([read_value](kv::KvStore* view) {
    Result<kv::Value> bytes = view->Get("T_1");
    if (!bytes.ok()) return bytes.status();
    TXREP_ASSIGN_OR_RETURN(rel::Row row, codec::DecodeRow(*bytes));
    *read_value = row[1].AsInt();
    return Status::OK();
  });
  TXREP_ASSERT_OK(ro->Wait());
  EXPECT_EQ(*read_value, 111);  // The seq-1 insert is visible at seq 2.
  EXPECT_EQ(tm.stats().read_only_submitted, 1);
}

TEST_F(TmTest, ReadOnlyNeverBlocksPipeline) {
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  tm.SubmitUpdate(InsertTxn(1, 1));
  for (int i = 0; i < 20; ++i) {
    tm.SubmitReadOnly([](kv::KvStore* view) {
      (void)view->Get("T_1");
      return Status::OK();
    });
    tm.SubmitUpdate(UpdateTxn(1, i));
  }
  TXREP_ASSERT_OK(tm.WaitIdle());
  EXPECT_EQ(tm.stats().completed, 41);
}

TEST_F(TmTest, CorruptReplayFailsTheManager) {
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  // Update of a row that never existed: unexplained by any conflict.
  auto handle = tm.SubmitUpdate(UpdateTxn(42, 1));
  Status s = handle->Wait();
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(tm.health().ok());
  // Subsequent submissions fail fast.
  auto next = tm.SubmitUpdate(InsertTxn(1, 1));
  EXPECT_FALSE(next->Wait().ok());
}

TEST_F(TmTest, WaitIdleOnEmptyManagerReturns) {
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  TXREP_ASSERT_OK(tm.WaitIdle());
}

TEST_F(TmTest, StatsTrackCommitAndCompleteCounts) {
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  for (int i = 1; i <= 10; ++i) tm.SubmitUpdate(InsertTxn(i, i));
  TXREP_ASSERT_OK(tm.WaitIdle());
  TmStats stats = tm.stats();
  EXPECT_EQ(stats.committed, 10);
  EXPECT_EQ(stats.completed, 10);
  EXPECT_EQ(stats.submitted, 10);
}

TEST_F(TmTest, RestartCountVisibleOnHandle) {
  kv::KvNodeOptions node_options;
  node_options.service_time_micros = 1000;
  kv::InMemoryKvNode store(node_options);
  TmOptions options;
  options.top_threads = 4;
  options.bottom_threads = 4;
  TransactionManager tm(&store, translator_.get(), options);
  tm.SubmitUpdate(InsertTxn(1, 0));
  auto h1 = tm.SubmitUpdate(UpdateTxn(1, 1));
  auto h2 = tm.SubmitUpdate(UpdateTxn(1, 2));
  TXREP_ASSERT_OK(tm.WaitIdle());
  // At least one of the chained updates must have restarted (they all race
  // on T_1 while the predecessor's buffer is unapplied).
  EXPECT_GE(h1->restarts() + h2->restarts(), 1);
}

}  // namespace
}  // namespace txrep::core
