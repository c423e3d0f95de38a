// Algorithm 2: asynchronous trimming of the CompletedTransactionList.

#include "core/transaction_manager.h"

#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "qt/query_translator.h"
#include "rel/database.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace txrep::core {
namespace {

using rel::Value;

class GcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<rel::TableSchema> schema =
        rel::TableSchema::Create("T",
                                 {{"ID", rel::ValueType::kInt64},
                                  {"V", rel::ValueType::kInt64}},
                                 "ID");
    ASSERT_TRUE(schema.ok());
    TXREP_ASSERT_OK(catalog_.AddTable(*schema));
    translator_ = std::make_unique<qt::QueryTranslator>(&catalog_);
  }

  rel::LogTransaction Insert(int64_t id) {
    rel::LogTransaction txn;
    txn.ops.push_back(rel::LogOp{rel::LogOpType::kInsert, "T", Value::Int(id),
                                 {Value::Int(id), Value::Int(0)}});
    return txn;
  }

  rel::Catalog catalog_;
  std::unique_ptr<qt::QueryTranslator> translator_;
};

TEST_F(GcTest, CompletedListBoundedByGc) {
  kv::InMemoryKvNode store;
  TmOptions options;
  options.completed_gc_threshold = 16;
  TransactionManager tm(&store, translator_.get(), options);
  // Waves with idle points between them: every wave-N transaction starts
  // strictly after all wave-(N-1) completions, so Algorithm 2's condition
  // makes the earlier waves' entries removable by any pass triggered during
  // the next wave — a deterministic GC opportunity regardless of scheduling.
  int next_id = 1;
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 200; ++i) {
      tm.SubmitUpdate(Insert(next_id++));
    }
    TXREP_ASSERT_OK(tm.WaitIdle());
  }
  TmStats stats = tm.stats();
  EXPECT_GT(stats.gc_runs, 0);
  EXPECT_GT(stats.gc_removed, 0);
  EXPECT_LT(tm.CompletedKeyCount(), 600u);
}

TEST_F(GcTest, NoGcBelowThreshold) {
  kv::InMemoryKvNode store;
  TmOptions options;
  options.completed_gc_threshold = 10000;
  TransactionManager tm(&store, translator_.get(), options);
  for (int i = 1; i <= 100; ++i) tm.SubmitUpdate(Insert(i));
  TXREP_ASSERT_OK(tm.WaitIdle());
  EXPECT_EQ(tm.stats().gc_runs, 0);
  EXPECT_EQ(tm.CompletedKeyCount(), 100u);
}

TEST_F(GcTest, AggressiveGcPreservesCorrectness) {
  // Threshold 1: the completed list is trimmed constantly while conflicting
  // transactions race — Algorithm 2's "no active transaction started before
  // completion" condition is what keeps the conflict checks sound.
  rel::Database db;
  workload::SyntheticWorkload workload(
      {.num_items = 50, .hot_range = 4, .seed = 21});
  TXREP_ASSERT_OK(workload.CreateSchema(db));
  TXREP_ASSERT_OK(workload.Populate(db));
  TXREP_ASSERT_OK(workload.Run(db, 300));

  qt::QueryTranslator translator(&db.catalog(), {});
  kv::InMemoryKvNode serial_store;
  TXREP_ASSERT_OK(testing::ReplaySerial(db, translator, &serial_store));

  kv::InMemoryKvNode concurrent_store;
  TmOptions options;
  options.top_threads = 8;
  options.bottom_threads = 8;
  options.completed_gc_threshold = 1;
  TmStats stats;
  TXREP_ASSERT_OK(testing::ReplayConcurrent(db, translator, &concurrent_store,
                                            options, &stats));
  EXPECT_GT(stats.gc_runs, 0);
  testing::ExpectDumpsEqual(serial_store, concurrent_store);
}

}  // namespace
}  // namespace txrep::core
