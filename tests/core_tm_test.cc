#include "core/transaction_manager.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "check/mutex.h"
#include "codec/kv_keys.h"
#include "codec/row_codec.h"
#include "common/clock.h"
#include "core/serial_applier.h"
#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "obs/metrics.h"
#include "obs/names.h"
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
    // H has a hash index on V, so its updates read the old row (to move the
    // posting) and conflict R/W with an unapplied writer of that row; T and
    // U have no index, so their updates write blind.
    Result<rel::TableSchema> indexed =
        rel::TableSchema::Create("H",
                                 {{"ID", rel::ValueType::kInt64},
                                  {"V", rel::ValueType::kInt64}},
                                 "ID");
    ASSERT_TRUE(indexed.ok());
    TXREP_ASSERT_OK(indexed->AddHashIndex("V"));
    TXREP_ASSERT_OK(catalog_.AddTable(*indexed));
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
  rel::LogTransaction UpdateTxn(int64_t id, int64_t v,
                                const char* table = "T") {
    rel::LogTransaction txn;
    txn.ops.push_back(rel::LogOp{rel::LogOpType::kUpdate, table,
                                 Value::Int(id),
                                 {Value::Int(id), Value::Int(v)}});
    return txn;
  }

  int64_t ReadV(kv::KvStore& store, int64_t id, const char* table = "T") {
    Result<kv::Value> bytes = store.Get(codec::RowKey(table, Value::Int(id)));
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
/// committed transaction's apply) until Release(). Records the key of every
/// Get and counts MultiGet calls.
class HoldFirstApplyStore : public kv::KvStore {
 public:
  explicit HoldFirstApplyStore(kv::KvNodeOptions options = {})
      : base_(options) {}

  Status Put(const kv::Key& key, const kv::Value& value) override {
    return base_.Put(key, value);
  }
  Result<kv::Value> Get(const kv::Key& key) override {
    {
      check::MutexLock lock(&mu_);
      gets_.push_back(key);
    }
    return base_.Get(key);
  }
  std::vector<Result<kv::Value>> MultiGet(
      std::span<const kv::Key> keys) override {
    {
      check::MutexLock lock(&mu_);
      ++multigets_;
    }
    return base_.MultiGet(keys);
  }
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

  /// The keys Get was called with since the last call, in call order.
  std::vector<kv::Key> TakeGets() {
    check::MutexLock lock(&mu_);
    return std::exchange(gets_, {});
  }
  int multigets() {
    check::MutexLock lock(&mu_);
    return multigets_;
  }

 private:
  kv::InMemoryKvNode base_;
  check::Mutex mu_{"test.hold_first_apply"};
  check::CondVar cv_{&mu_};
  bool first_seen_ TXREP_GUARDED_BY(mu_) = false;
  bool released_ TXREP_GUARDED_BY(mu_) = false;
  std::vector<kv::Key> gets_ TXREP_GUARDED_BY(mu_);
  int multigets_ TXREP_GUARDED_BY(mu_) = 0;
};

TEST_F(TmTest, EveryCommittedPredecessorCostsOneConflictCheck) {
  // The second transaction is evaluated while the first is COMMITTED but not
  // yet applied. Their tables differ, so the exact key-set check runs once
  // and finds no conflict. Each evaluation also probes the completion-stamp
  // index once: 2 probes + 1 pair check.
  HoldFirstApplyStore store;
  TransactionManager tm(&store, translator_.get(), {});
  auto first = tm.SubmitUpdate(InsertTxn(1, 10, "T"));
  store.AwaitHeld();
  auto second = tm.SubmitUpdate(InsertTxn(1, 20, "U"));
  const Status second_status = second->Wait();
  const TmStats stats = tm.stats();
  store.Release();  // Before any assertion: the TM's teardown drains.
  TXREP_ASSERT_OK(second_status);
  EXPECT_EQ(stats.conflict_checks, 3);
  EXPECT_EQ(stats.conflicts, 0);
  TXREP_ASSERT_OK(first->Wait());
  EXPECT_EQ(ReadV(store, 1), 10);
}

TEST_F(TmTest, RestartPrefetchesPreviousReadSetInOneMultiGet) {
  // The update reads row H_1 (its index needs the old value) while its
  // inserting predecessor is COMMITTED but held in apply, so Algorithm 1
  // parks it. When the insert completes, the
  // re-execution fetches everything the first execution read in one
  // MultiGet and issues no Get for any of those keys.
  kv::KvNodeOptions node_options;
  node_options.service_time_micros = 200;
  HoldFirstApplyStore store(node_options);
  std::shared_ptr<Transaction> insert;
  std::shared_ptr<Transaction> update;
  std::vector<kv::Key> previous_reads;
  int multigets_before = 0;
  {
    TransactionManager tm(&store, translator_.get(), {});
    insert = tm.SubmitUpdate(InsertTxn(1, 10, "H"));
    store.AwaitHeld();
    (void)store.TakeGets();  // The insert's own reads.
    update = tm.SubmitUpdate(UpdateTxn(1, 11, "H"));
    while (tm.stats().conflicts < 1) SleepForMicros(100);  // Parked.
    previous_reads = store.TakeGets();
    multigets_before = store.multigets();
    store.Release();
    TXREP_ASSERT_OK(update->Wait());
    TXREP_ASSERT_OK(insert->Wait());
  }  // Joins the pools: the buffers are settled.

  ASSERT_FALSE(previous_reads.empty());
  EXPECT_EQ(update->restarts(), 1);
  EXPECT_EQ(store.multigets() - multigets_before, 1);
  for (const kv::Key& key : store.TakeGets()) {
    EXPECT_EQ(std::count(previous_reads.begin(), previous_reads.end(), key), 0)
        << "re-execution re-read " << key << " with a Get";
  }
  // Completed transactions keep their key sets, not their values.
  EXPECT_EQ(update->buffer->WriteCount(), 0u);
  EXPECT_FALSE(update->buffer->write_set().empty());
  EXPECT_FALSE(update->buffer->read_set().empty());

  kv::InMemoryKvNode serial_store;
  SerialApplier serial(&serial_store, translator_.get());
  TXREP_ASSERT_OK(serial.Apply(InsertTxn(1, 10, "H")));
  TXREP_ASSERT_OK(serial.Apply(UpdateTxn(1, 11, "H")));
  testing::ExpectDumpsEqual(store, serial_store);
}

TEST_F(TmTest, WriteWriteSuccessorCommitsWhileItsPredecessorApplies) {
  // The blind update of row T_1 only writes what the held insert writes.
  // It commits at once, never re-executes, and its apply waits for the
  // insert's: the final row is the update's.
  HoldFirstApplyStore store;
  std::shared_ptr<Transaction> insert;
  std::shared_ptr<Transaction> update;
  TmStats while_held;
  {
    TransactionManager tm(&store, translator_.get(), {});
    insert = tm.SubmitUpdate(InsertTxn(1, 10));
    store.AwaitHeld();
    update = tm.SubmitUpdate(UpdateTxn(1, 11));
    while (tm.stats().committed < 2) SleepForMicros(100);
    while_held = tm.stats();
    store.Release();
    TXREP_ASSERT_OK(update->Wait());
    TXREP_ASSERT_OK(insert->Wait());
    EXPECT_EQ(tm.stats().apply_orders, 1);
  }
  EXPECT_EQ(while_held.completed, 0);
  EXPECT_EQ(while_held.conflicts, 0);
  EXPECT_EQ(update->restarts(), 0);
  EXPECT_TRUE(update->buffer->read_set().empty());
  EXPECT_EQ(ReadV(store, 1), 11);
}

TEST_F(TmTest, BlindUpdateChainExecutesEachTransactionOnce) {
  // Every update of row T_1 writes blind, so a chain of them only orders
  // applies: no transaction executes twice, and the replica equals serial
  // replay.
  kv::KvNodeOptions node_options;
  node_options.service_time_micros = 200;  // Applies overlap evaluations.
  kv::InMemoryKvNode store(node_options);
  TmOptions options;
  options.top_threads = 8;
  options.bottom_threads = 8;
  std::vector<std::shared_ptr<Transaction>> handles;
  TmStats stats;
  {
    TransactionManager tm(&store, translator_.get(), options);
    handles.push_back(tm.SubmitUpdate(InsertTxn(1, 0)));
    for (int v = 1; v <= 50; ++v) handles.push_back(tm.SubmitUpdate(UpdateTxn(1, v)));
    TXREP_ASSERT_OK(tm.WaitIdle());
    stats = tm.stats();
  }
  for (const auto& handle : handles) EXPECT_EQ(handle->restarts(), 0);
  EXPECT_EQ(stats.submitted, 51);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(stats.conflicts, 0);
  EXPECT_EQ(ReadV(store, 1), 50);

  kv::InMemoryKvNode serial_store;
  SerialApplier serial(&serial_store, translator_.get());
  TXREP_ASSERT_OK(serial.Apply(InsertTxn(1, 0)));
  for (int v = 1; v <= 50; ++v) TXREP_ASSERT_OK(serial.Apply(UpdateTxn(1, v)));
  testing::ExpectDumpsEqual(store, serial_store);
}

TEST_F(TmTest, ConflictKeysAreCountedByClass) {
  auto count = [](obs::MetricsRegistry& registry, const char* key_class,
                  const char* kind) {
    return registry
        .GetCounter(obs::kTmConflictKeys, {{"class", key_class}, {"kind", kind}})
        ->Value();
  };
  {
    // Two inserts of V = 10 into H: the second reads the posting list the
    // held first one writes, an R/W conflict on a hash-index key only.
    obs::MetricsRegistry registry;
    HoldFirstApplyStore store;
    TransactionManager tm(&store, translator_.get(), {}, &registry);
    auto first = tm.SubmitUpdate(InsertTxn(1, 10, "H"));
    store.AwaitHeld();
    auto second = tm.SubmitUpdate(InsertTxn(2, 10, "H"));
    while (tm.stats().conflicts < 1) SleepForMicros(100);
    store.Release();
    TXREP_ASSERT_OK(second->Wait());
    TXREP_ASSERT_OK(first->Wait());
    EXPECT_EQ(count(registry, "hash", obs::kTmEventConflict), 1);
    EXPECT_EQ(count(registry, "row", obs::kTmEventConflict), 0);
    EXPECT_EQ(count(registry, "hash", obs::kTmEventApplyOrder), 0);
  }
  {
    // A blind update behind the held insert of the same row: a W/W overlap
    // on a row key, counted as an apply order.
    obs::MetricsRegistry registry;
    HoldFirstApplyStore store;
    TransactionManager tm(&store, translator_.get(), {}, &registry);
    auto insert = tm.SubmitUpdate(InsertTxn(1, 10));
    store.AwaitHeld();
    auto update = tm.SubmitUpdate(UpdateTxn(1, 11));
    while (tm.stats().committed < 2) SleepForMicros(100);
    store.Release();
    TXREP_ASSERT_OK(update->Wait());
    TXREP_ASSERT_OK(insert->Wait());
    EXPECT_EQ(count(registry, "row", obs::kTmEventApplyOrder), 1);
    EXPECT_EQ(count(registry, "row", obs::kTmEventConflict), 0);
  }
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
    tm.SubmitUpdate(UpdateTxn(1, v));  // All write row T_1.
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
  tm.SubmitUpdate(InsertTxn(1, 0, "H"));
  for (int v = 1; v <= 30; ++v) {
    tm.SubmitUpdate(UpdateTxn(1, v, "H"));
  }
  TXREP_ASSERT_OK(tm.WaitIdle());
  TmStats stats = tm.stats();
  EXPECT_GT(stats.conflicts, 0);
  EXPECT_EQ(stats.restarts, stats.conflicts);  // No transient errors here.
  EXPECT_EQ(ReadV(store, 1, "H"), 30);
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
  // Update of an indexed row that never existed: its old-row read fails,
  // unexplained by any conflict.
  auto handle = tm.SubmitUpdate(UpdateTxn(42, 1, "H"));
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
  tm.SubmitUpdate(InsertTxn(1, 0, "H"));
  auto h1 = tm.SubmitUpdate(UpdateTxn(1, 1, "H"));
  auto h2 = tm.SubmitUpdate(UpdateTxn(1, 2, "H"));
  TXREP_ASSERT_OK(tm.WaitIdle());
  // At least one of the chained updates must have restarted (they all race
  // on H_1 while the predecessor's buffer is unapplied).
  EXPECT_GE(h1->restarts() + h2->restarts(), 1);
}

}  // namespace
}  // namespace txrep::core
