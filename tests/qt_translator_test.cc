#include "qt/query_translator.h"

#include "blink/blink_tree.h"
#include "codec/kv_keys.h"
#include "codec/row_codec.h"
#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "test_util.h"

namespace txrep::qt {
namespace {

using rel::Value;

class QueryTranslatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<rel::TableSchema> item =
        rel::TableSchema::Create("ITEM",
                                 {{"I_ID", rel::ValueType::kInt64},
                                  {"I_TITLE", rel::ValueType::kString},
                                  {"I_COST", rel::ValueType::kDouble}},
                                 "I_ID");
    ASSERT_TRUE(item.ok());
    TXREP_ASSERT_OK(item->AddHashIndex("I_COST"));
    TXREP_ASSERT_OK(item->AddRangeIndex("I_COST"));
    TXREP_ASSERT_OK(catalog_.AddTable(*item));
    // No secondary index: updates and deletes of NOTE rows write blind.
    Result<rel::TableSchema> note =
        rel::TableSchema::Create("NOTE",
                                 {{"N_ID", rel::ValueType::kInt64},
                                  {"N_TEXT", rel::ValueType::kString}},
                                 "N_ID");
    ASSERT_TRUE(note.ok());
    TXREP_ASSERT_OK(catalog_.AddTable(*note));
    translator_ =
        std::make_unique<QueryTranslator>(&catalog_, blink::BlinkTreeOptions{});
    TXREP_ASSERT_OK(translator_->InitializeIndexes(&store_));
  }

  rel::LogOp Insert(int64_t id, const std::string& title, double cost) {
    return rel::LogOp{rel::LogOpType::kInsert, "ITEM", Value::Int(id),
                      {Value::Int(id), Value::Str(title), Value::Real(cost)}};
  }
  rel::LogOp Update(int64_t id, const std::string& title, double cost) {
    return rel::LogOp{rel::LogOpType::kUpdate, "ITEM", Value::Int(id),
                      {Value::Int(id), Value::Str(title), Value::Real(cost)}};
  }
  rel::LogOp Delete(int64_t id) {
    return rel::LogOp{rel::LogOpType::kDelete, "ITEM", Value::Int(id), {}};
  }

  std::vector<std::string> Postings(double cost) {
    Result<kv::Value> bytes =
        store_.Get(codec::HashIndexKey("ITEM", "I_COST", Value::Real(cost)));
    if (!bytes.ok()) return {};
    return *codec::DecodePostings(*bytes);
  }

  rel::Catalog catalog_;
  kv::InMemoryKvNode store_;
  std::unique_ptr<QueryTranslator> translator_;
};

TEST_F(QueryTranslatorTest, InsertWritesRowObject) {
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, Insert(1, "a", 10.0)));
  Result<kv::Value> bytes = store_.Get("ITEM_1");
  ASSERT_TRUE(bytes.ok());
  Result<rel::Row> row = codec::DecodeRow(*bytes);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "a");
}

TEST_F(QueryTranslatorTest, InsertMaintainsHashIndex) {
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, Insert(1, "a", 10.0)));
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, Insert(7, "b", 10.0)));
  EXPECT_EQ(Postings(10.0), (std::vector<std::string>{"ITEM_1", "ITEM_7"}));
}

TEST_F(QueryTranslatorTest, InsertMaintainsRangeIndex) {
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, Insert(1, "a", 10.0)));
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, Insert(2, "b", 20.0)));
  blink::BlinkTree tree(&store_, "ITEM", "I_COST", {});
  Result<std::vector<blink::EntryKey>> entries =
      tree.RangeScan(Value::Real(5.0), Value::Real(15.0));
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].row_key, "ITEM_1");
}

TEST_F(QueryTranslatorTest, UpdateMovesIndexEntries) {
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, Insert(1, "a", 10.0)));
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, Update(1, "a", 99.0)));
  EXPECT_TRUE(Postings(10.0).empty());
  EXPECT_EQ(Postings(99.0), (std::vector<std::string>{"ITEM_1"}));
  blink::BlinkTree tree(&store_, "ITEM", "I_COST", {});
  EXPECT_FALSE(*tree.Contains(Value::Real(10.0), "ITEM_1"));
  EXPECT_TRUE(*tree.Contains(Value::Real(99.0), "ITEM_1"));
}

TEST_F(QueryTranslatorTest, UpdateWithoutIndexChangeLeavesIndexesAlone) {
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, Insert(1, "a", 10.0)));
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, Update(1, "new", 10.0)));
  EXPECT_EQ(Postings(10.0), (std::vector<std::string>{"ITEM_1"}));
  Result<rel::Row> row = codec::DecodeRow(*store_.Get("ITEM_1"));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "new");
}

TEST_F(QueryTranslatorTest, DeleteRemovesEverything) {
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, Insert(1, "a", 10.0)));
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, Delete(1)));
  EXPECT_TRUE(store_.Get("ITEM_1").status().IsNotFound());
  EXPECT_TRUE(Postings(10.0).empty());  // Posting object deleted entirely.
  EXPECT_FALSE(store_.Contains(
      codec::HashIndexKey("ITEM", "I_COST", Value::Real(10.0))));
  blink::BlinkTree tree(&store_, "ITEM", "I_COST", {});
  EXPECT_EQ(*tree.EntryCount(), 0u);
}

TEST_F(QueryTranslatorTest, SharedPostingShrinksOnDelete) {
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, Insert(1, "a", 10.0)));
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, Insert(2, "b", 10.0)));
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, Delete(1)));
  EXPECT_EQ(Postings(10.0), (std::vector<std::string>{"ITEM_2"}));
}

TEST_F(QueryTranslatorTest, UpdateOfMissingRowFails) {
  Status s = translator_->ApplyLogOp(&store_, Update(42, "x", 1.0));
  EXPECT_TRUE(s.IsNotFound());
}

TEST_F(QueryTranslatorTest, DeleteOfMissingRowFails) {
  EXPECT_TRUE(translator_->ApplyLogOp(&store_, Delete(42)).IsNotFound());
}

TEST_F(QueryTranslatorTest, UnindexedUpdateAndDeleteWriteBlind) {
  auto note = [](rel::LogOpType type, int64_t id, const std::string& text) {
    rel::LogOp op{type, "NOTE", Value::Int(id), {}};
    if (type != rel::LogOpType::kDelete) {
      op.after = {Value::Int(id), Value::Str(text)};
    }
    return op;
  };
  TXREP_ASSERT_OK(
      translator_->ApplyLogOp(&store_, note(rel::LogOpType::kInsert, 1, "a")));
  const int64_t gets_before = store_.stats().gets;
  TXREP_ASSERT_OK(
      translator_->ApplyLogOp(&store_, note(rel::LogOpType::kUpdate, 1, "b")));
  Result<rel::Row> row = codec::DecodeRow(*store_.Get("NOTE_1"));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "b");
  const int64_t gets_after_update = store_.stats().gets;
  EXPECT_EQ(gets_after_update, gets_before + 1);  // Only the check above.
  TXREP_ASSERT_OK(
      translator_->ApplyLogOp(&store_, note(rel::LogOpType::kDelete, 1, "")));
  EXPECT_EQ(store_.stats().gets, gets_after_update);
  EXPECT_FALSE(store_.Contains("NOTE_1"));
}

TEST_F(QueryTranslatorTest, UnindexedUpdateOfMissingRowWritesAfterImage) {
  // No old row is read, so nothing can be missing: the after-image the log
  // shipped becomes the row.
  rel::LogOp op{rel::LogOpType::kUpdate, "NOTE", Value::Int(9),
                {Value::Int(9), Value::Str("z")}};
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, op));
  Result<rel::Row> row = codec::DecodeRow(*store_.Get("NOTE_9"));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "z");
}

TEST_F(QueryTranslatorTest, NullIndexedValuesSkipped) {
  rel::LogOp op{rel::LogOpType::kInsert, "ITEM", Value::Int(5),
                {Value::Int(5), Value::Str("n"), Value::Null()}};
  TXREP_ASSERT_OK(translator_->ApplyLogOp(&store_, op));
  blink::BlinkTree tree(&store_, "ITEM", "I_COST", {});
  EXPECT_EQ(*tree.EntryCount(), 0u);
}

TEST_F(QueryTranslatorTest, UnknownTableErrors) {
  rel::LogOp op{rel::LogOpType::kInsert, "NOPE", Value::Int(1),
                {Value::Int(1)}};
  EXPECT_TRUE(translator_->ApplyLogOp(&store_, op).IsNotFound());
}

TEST_F(QueryTranslatorTest, ApplyTransactionAppliesAllOps) {
  rel::LogTransaction txn;
  txn.lsn = 1;
  txn.ops = {Insert(1, "a", 1.0), Insert(2, "b", 2.0), Update(1, "a", 3.0)};
  TXREP_ASSERT_OK(translator_->ApplyTransaction(&store_, txn));
  EXPECT_TRUE(store_.Contains("ITEM_1"));
  EXPECT_TRUE(store_.Contains("ITEM_2"));
  EXPECT_EQ(Postings(3.0), (std::vector<std::string>{"ITEM_1"}));
}

TEST_F(QueryTranslatorTest, LoadSnapshotMatchesDatabase) {
  rel::Database db;
  Result<rel::TableSchema> item =
      rel::TableSchema::Create("ITEM",
                               {{"I_ID", rel::ValueType::kInt64},
                                {"I_TITLE", rel::ValueType::kString},
                                {"I_COST", rel::ValueType::kDouble}},
                               "I_ID");
  ASSERT_TRUE(item.ok());
  TXREP_ASSERT_OK(db.CreateTable(*item));
  TXREP_ASSERT_OK(db.CreateHashIndex("ITEM", "I_COST"));
  TXREP_ASSERT_OK(db.CreateRangeIndex("ITEM", "I_COST"));
  for (int i = 1; i <= 20; ++i) {
    TXREP_ASSERT_OK(
        db.ExecuteTransaction(
              {rel::InsertStatement{"ITEM",
                                    {},
                                    {Value::Int(i), Value::Str("t"),
                                     Value::Real(i * 1.5)}}})
            .status());
  }
  QueryTranslator translator(&db.catalog(), {});
  kv::InMemoryKvNode snapshot_store;
  TXREP_ASSERT_OK(translator.LoadSnapshot(&snapshot_store, db));
  testing::VerifyReplicaMatchesDatabase(snapshot_store, db, translator);
}

}  // namespace
}  // namespace txrep::qt
