#ifndef TXREP_QT_QUERY_TRANSLATOR_H_
#define TXREP_QT_QUERY_TRANSLATOR_H_

#include <string>

#include "blink/blink_tree.h"
#include "common/status.h"
#include "kv/kv_store.h"
#include "rel/database.h"
#include "rel/schema.h"
#include "rel/txlog.h"

namespace txrep::qt {

/// The Query Translator (paper §4): maps relational write statements onto
/// key-value store operations, maintaining the full relational layout on the
/// replica:
///   - one KV object per tuple           (RowKey,        paper Fig. 6)
///   - one KV object per hash-index key  (HashIndexKey,  paper Fig. 7)
///   - one KV object per B-link node     (range indexes, paper §4.2)
///
/// Translation is *executed*, not merely emitted: on an indexed table, index
/// maintenance must read current replica state (the old row of an UPDATE or
/// DELETE, posting lists, B-link nodes), so each logged op becomes a program
/// of GET/PUT/DELETE against a KvStore. On a table with no hash and no range
/// index, UPDATE and DELETE write blind: the log's after-image (or the row
/// key's deletion) is the whole op, with no GET. When the store is a
/// transaction buffer (core/TxnBuffer), the reads/writes become the
/// transaction's read/write sets and all conflicts fall out of the TM's
/// concurrency control; a blind write joins only the write set, so it orders
/// the apply instead of forcing a re-execution (DESIGN.md §3).
///
/// Stateless and therefore trivially thread-safe; the catalog must outlive it.
class QueryTranslator {
 public:
  explicit QueryTranslator(const rel::Catalog* catalog,
                           blink::BlinkTreeOptions blink_options = {});

  /// Creates empty B-link trees for every declared range index. Call once on
  /// a fresh replica before applying any transaction.
  Status InitializeIndexes(kv::KvStore* store) const;

  /// Applies one logged write op (row object + hash index + range index
  /// maintenance) through `store`.
  Status ApplyLogOp(kv::KvStore* store, const rel::LogOp& op) const;

  /// Applies all ops of one logged transaction, in order.
  Status ApplyTransaction(kv::KvStore* store,
                          const rel::LogTransaction& txn) const;

  /// Bulk-loads a full database snapshot (rows + all index structures) into
  /// an empty replica — the initial copy before log shipping starts.
  Status LoadSnapshot(kv::KvStore* store, const rel::Database& db) const;

  const rel::Catalog& catalog() const { return *catalog_; }
  const blink::BlinkTreeOptions& blink_options() const {
    return blink_options_;
  }

 private:
  Status ApplyInsert(kv::KvStore* store, const rel::TableSchema& schema,
                     const rel::LogOp& op) const;
  Status ApplyUpdate(kv::KvStore* store, const rel::TableSchema& schema,
                     const rel::LogOp& op) const;
  Status ApplyDelete(kv::KvStore* store, const rel::TableSchema& schema,
                     const rel::LogOp& op) const;

  /// Adds `row_key` to the posting list object of (table, column, value).
  Status HashIndexAdd(kv::KvStore* store, const std::string& table,
                      const std::string& column, const rel::Value& value,
                      const std::string& row_key) const;

  /// Removes `row_key` from the posting list (deletes the object when it
  /// becomes empty, keeping the replica layout canonical).
  Status HashIndexRemove(kv::KvStore* store, const std::string& table,
                         const std::string& column, const rel::Value& value,
                         const std::string& row_key) const;

  const rel::Catalog* catalog_;  // Not owned.
  blink::BlinkTreeOptions blink_options_;
};

}  // namespace txrep::qt

#endif  // TXREP_QT_QUERY_TRANSLATOR_H_
