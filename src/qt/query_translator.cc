#include "qt/query_translator.h"

#include <algorithm>

#include "codec/kv_keys.h"
#include "codec/row_codec.h"

namespace txrep::qt {
namespace {

/// True when no secondary index needs a row's old value: the op's
/// after-image (or the row key, for a delete) is all the write needs.
bool WritesBlind(const rel::TableSchema& schema) {
  return schema.hash_index_columns().empty() &&
         schema.range_index_columns().empty();
}

}  // namespace

QueryTranslator::QueryTranslator(const rel::Catalog* catalog,
                                 blink::BlinkTreeOptions blink_options)
    : catalog_(catalog), blink_options_(blink_options) {}

Status QueryTranslator::InitializeIndexes(kv::KvStore* store) const {
  for (const std::string& table_name : catalog_->TableNames()) {
    TXREP_ASSIGN_OR_RETURN(const rel::TableSchema* schema,
                           catalog_->GetTable(table_name));
    for (size_t col : schema->range_index_columns()) {
      blink::BlinkTree tree(store, table_name, schema->columns()[col].name,
                            blink_options_);
      TXREP_RETURN_IF_ERROR(tree.Init());
    }
  }
  return Status::OK();
}

Status QueryTranslator::HashIndexAdd(kv::KvStore* store,
                                     const std::string& table,
                                     const std::string& column,
                                     const rel::Value& value,
                                     const std::string& row_key) const {
  const kv::Key index_key = codec::HashIndexKey(table, column, value);
  std::vector<std::string> postings;
  Result<kv::Value> existing = store->Get(index_key);
  if (existing.ok()) {
    TXREP_ASSIGN_OR_RETURN(postings, codec::DecodePostings(*existing));
  } else if (!existing.status().IsNotFound()) {
    return existing.status();
  }
  postings.push_back(row_key);
  return store->Put(index_key, codec::EncodePostings(postings));
}

Status QueryTranslator::HashIndexRemove(kv::KvStore* store,
                                        const std::string& table,
                                        const std::string& column,
                                        const rel::Value& value,
                                        const std::string& row_key) const {
  const kv::Key index_key = codec::HashIndexKey(table, column, value);
  Result<kv::Value> existing = store->Get(index_key);
  if (!existing.ok()) {
    if (existing.status().IsNotFound()) {
      // Index entry already gone: tolerated (replay is restart-safe), the
      // row object is the source of truth.
      return Status::OK();
    }
    return existing.status();
  }
  TXREP_ASSIGN_OR_RETURN(std::vector<std::string> postings,
                         codec::DecodePostings(*existing));
  postings.erase(std::remove(postings.begin(), postings.end(), row_key),
                 postings.end());
  if (postings.empty()) {
    return store->Delete(index_key);
  }
  return store->Put(index_key, codec::EncodePostings(postings));
}

Status QueryTranslator::ApplyInsert(kv::KvStore* store,
                                    const rel::TableSchema& schema,
                                    const rel::LogOp& op) const {
  const std::string row_key = codec::RowKey(op.table, op.pk);
  TXREP_RETURN_IF_ERROR(store->Put(row_key, codec::EncodeRow(op.after)));
  for (size_t col : schema.hash_index_columns()) {
    const rel::Value& v = op.after[col];
    if (v.is_null()) continue;
    TXREP_RETURN_IF_ERROR(
        HashIndexAdd(store, op.table, schema.columns()[col].name, v, row_key));
  }
  for (size_t col : schema.range_index_columns()) {
    const rel::Value& v = op.after[col];
    if (v.is_null()) continue;
    blink::BlinkTree tree(store, op.table, schema.columns()[col].name,
                          blink_options_);
    TXREP_RETURN_IF_ERROR(tree.Insert(v, row_key));
  }
  return Status::OK();
}

Status QueryTranslator::ApplyUpdate(kv::KvStore* store,
                                    const rel::TableSchema& schema,
                                    const rel::LogOp& op) const {
  const std::string row_key = codec::RowKey(op.table, op.pk);
  if (WritesBlind(schema)) {
    return store->Put(row_key, codec::EncodeRow(op.after));
  }
  // The old row must be read to maintain the secondary indexes. If the row is
  // not there yet, a predecessor transaction has not been applied: surface
  // the error — under the TM this read conflicts with that predecessor and
  // the transaction restarts.
  TXREP_ASSIGN_OR_RETURN(kv::Value old_bytes, store->Get(row_key));
  TXREP_ASSIGN_OR_RETURN(rel::Row old_row, codec::DecodeRow(old_bytes));

  for (size_t col : schema.hash_index_columns()) {
    const rel::Value& old_v = old_row[col];
    const rel::Value& new_v = op.after[col];
    if (old_v == new_v) continue;
    const std::string& column = schema.columns()[col].name;
    if (!old_v.is_null()) {
      TXREP_RETURN_IF_ERROR(
          HashIndexRemove(store, op.table, column, old_v, row_key));
    }
    if (!new_v.is_null()) {
      TXREP_RETURN_IF_ERROR(
          HashIndexAdd(store, op.table, column, new_v, row_key));
    }
  }
  for (size_t col : schema.range_index_columns()) {
    const rel::Value& old_v = old_row[col];
    const rel::Value& new_v = op.after[col];
    if (old_v == new_v) continue;
    const std::string& column = schema.columns()[col].name;
    blink::BlinkTree tree(store, op.table, column, blink_options_);
    if (!old_v.is_null()) {
      TXREP_RETURN_IF_ERROR(tree.Remove(old_v, row_key));
    }
    if (!new_v.is_null()) {
      TXREP_RETURN_IF_ERROR(tree.Insert(new_v, row_key));
    }
  }
  return store->Put(row_key, codec::EncodeRow(op.after));
}

Status QueryTranslator::ApplyDelete(kv::KvStore* store,
                                    const rel::TableSchema& schema,
                                    const rel::LogOp& op) const {
  const std::string row_key = codec::RowKey(op.table, op.pk);
  // Deleting an absent key is a no-op, so a blind delete needs no read.
  if (WritesBlind(schema)) return store->Delete(row_key);
  TXREP_ASSIGN_OR_RETURN(kv::Value old_bytes, store->Get(row_key));
  TXREP_ASSIGN_OR_RETURN(rel::Row old_row, codec::DecodeRow(old_bytes));

  for (size_t col : schema.hash_index_columns()) {
    const rel::Value& v = old_row[col];
    if (v.is_null()) continue;
    TXREP_RETURN_IF_ERROR(HashIndexRemove(
        store, op.table, schema.columns()[col].name, v, row_key));
  }
  for (size_t col : schema.range_index_columns()) {
    const rel::Value& v = old_row[col];
    if (v.is_null()) continue;
    blink::BlinkTree tree(store, op.table, schema.columns()[col].name,
                          blink_options_);
    TXREP_RETURN_IF_ERROR(tree.Remove(v, row_key));
  }
  return store->Delete(row_key);
}

Status QueryTranslator::ApplyLogOp(kv::KvStore* store,
                                   const rel::LogOp& op) const {
  TXREP_ASSIGN_OR_RETURN(const rel::TableSchema* schema,
                         catalog_->GetTable(op.table));
  switch (op.type) {
    case rel::LogOpType::kInsert:
      return ApplyInsert(store, *schema, op);
    case rel::LogOpType::kUpdate:
      return ApplyUpdate(store, *schema, op);
    case rel::LogOpType::kDelete:
      return ApplyDelete(store, *schema, op);
  }
  return Status::Internal("unreachable log op type");
}

Status QueryTranslator::ApplyTransaction(kv::KvStore* store,
                                         const rel::LogTransaction& txn) const {
  for (const rel::LogOp& op : txn.ops) {
    TXREP_RETURN_IF_ERROR(ApplyLogOp(store, op));
  }
  return Status::OK();
}

Status QueryTranslator::LoadSnapshot(kv::KvStore* store,
                                     const rel::Database& db) const {
  TXREP_RETURN_IF_ERROR(InitializeIndexes(store));
  for (const auto& [table_name, rows] : db.DumpAll()) {
    TXREP_ASSIGN_OR_RETURN(const rel::TableSchema* schema,
                           catalog_->GetTable(table_name));
    for (const rel::Row& row : rows) {
      rel::LogOp op;
      op.type = rel::LogOpType::kInsert;
      op.table = table_name;
      op.pk = row[schema->pk_index()];
      op.after = row;
      TXREP_RETURN_IF_ERROR(ApplyInsert(store, *schema, op));
    }
  }
  return Status::OK();
}

}  // namespace txrep::qt
