// The invariant checkers must pass on healthy structures and actually fire
// on corrupted ones — a checker that never fails checks nothing.

#include "check/invariants.h"

#include "codec/kv_keys.h"
#include "core/transaction_manager.h"
#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "qt/query_translator.h"
#include "rel/database.h"
#include "test_util.h"

namespace txrep::check {
namespace {

using rel::Value;

/// Small insert/update/delete workload with hash + range index maintenance.
void BuildWorkload(rel::Database& db, int rows, int txns) {
  Result<rel::TableSchema> schema =
      rel::TableSchema::Create("R",
                               {{"ID", rel::ValueType::kInt64},
                                {"VAL", rel::ValueType::kInt64}},
                               "ID");
  TXREP_ASSERT_OK(schema.status());
  TXREP_ASSERT_OK(db.CreateTable(*schema));
  TXREP_ASSERT_OK(db.CreateHashIndex("R", "VAL"));
  TXREP_ASSERT_OK(db.CreateRangeIndex("R", "VAL"));
  for (int i = 1; i <= rows; ++i) {
    TXREP_ASSERT_OK(
        db.ExecuteTransaction(
              {rel::InsertStatement{
                  "R", {}, {Value::Int(i), Value::Int(i * 10)}}})
            .status());
  }
  for (int t = 0; t < txns; ++t) {
    const int64_t id = 1 + t % rows;
    TXREP_ASSERT_OK(
        db.ExecuteTransaction(
              {rel::UpdateStatement{
                  "R",
                  {{"VAL", Value::Int(t)}},
                  {rel::Predicate{"ID", rel::PredicateOp::kEq, Value::Int(id),
                                  {}}}}})
            .status());
  }
}

TEST(TmInvariantsTest, HoldOnIdleTm) {
  rel::Database db;
  BuildWorkload(db, 1, 0);
  qt::QueryTranslator translator(&db.catalog(), {});
  kv::InMemoryKvNode store;
  core::TransactionManager tm(&store, &translator, {});
  TXREP_EXPECT_OK(tm.CheckInvariants());
}

TEST(TmInvariantsTest, HoldAfterConcurrentReplay) {
  rel::Database db;
  BuildWorkload(db, 5, 120);
  qt::QueryTranslator translator(&db.catalog(), {});
  kv::InMemoryKvNode store;
  TXREP_ASSERT_OK(translator.InitializeIndexes(&store));

  core::TmOptions options;
  options.top_threads = 4;
  options.bottom_threads = 4;
  options.completed_gc_threshold = 8;  // Exercise GC alongside commits.
  core::TransactionManager tm(&store, &translator, options);
  for (rel::LogTransaction& txn : db.log().ReadSince(0)) {
    tm.SubmitUpdate(std::move(txn));
  }
  TXREP_ASSERT_OK(tm.WaitIdle());
  TXREP_EXPECT_OK(tm.CheckInvariants());
}

TEST(BlinkInvariantsTest, HoldOnPopulatedTree) {
  kv::InMemoryKvNode store;
  blink::BlinkTree tree(&store, "T", "C", {.max_node_keys = 4});
  TXREP_ASSERT_OK(tree.Init());
  for (int i = 0; i < 200; ++i) {
    TXREP_ASSERT_OK(
        tree.Insert(Value::Int(i), "row" + std::to_string(i)));
  }
  TXREP_EXPECT_OK(tree.Validate());
}

TEST(ReplicaEquivalenceTest, HoldsAfterSerialReplay) {
  rel::Database db;
  BuildWorkload(db, 8, 60);
  qt::QueryTranslator translator(&db.catalog(), {});
  kv::InMemoryKvNode store;
  TXREP_ASSERT_OK(testing::ReplaySerial(db, translator, &store));
  TXREP_EXPECT_OK(CheckReplicaEquivalence(store, db, translator));
}

TEST(ReplicaEquivalenceTest, FlagsStrayObject) {
  rel::Database db;
  BuildWorkload(db, 4, 10);
  qt::QueryTranslator translator(&db.catalog(), {});
  kv::InMemoryKvNode store;
  TXREP_ASSERT_OK(testing::ReplaySerial(db, translator, &store));
  TXREP_ASSERT_OK(store.Put(codec::RowKey("R", Value::Int(9999)), "stray"));
  Status status = CheckReplicaEquivalence(store, db, translator);
  EXPECT_FALSE(status.ok());
}

TEST(ReplicaEquivalenceTest, FlagsCorruptedRow) {
  rel::Database db;
  BuildWorkload(db, 4, 10);
  qt::QueryTranslator translator(&db.catalog(), {});
  kv::InMemoryKvNode store;
  TXREP_ASSERT_OK(testing::ReplaySerial(db, translator, &store));
  TXREP_ASSERT_OK(store.Put(codec::RowKey("R", Value::Int(1)), "garbage"));
  Status status = CheckReplicaEquivalence(store, db, translator);
  EXPECT_FALSE(status.ok());
}

TEST(ReplicaEquivalenceTest, FlagsMissingRow) {
  rel::Database db;
  BuildWorkload(db, 4, 10);
  qt::QueryTranslator translator(&db.catalog(), {});
  kv::InMemoryKvNode store;
  TXREP_ASSERT_OK(testing::ReplaySerial(db, translator, &store));
  TXREP_ASSERT_OK(store.Delete(codec::RowKey("R", Value::Int(2))));
  Status status = CheckReplicaEquivalence(store, db, translator);
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace txrep::check
