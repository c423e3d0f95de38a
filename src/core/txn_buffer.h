#ifndef TXREP_CORE_TXN_BUFFER_H_
#define TXREP_CORE_TXN_BUFFER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/result.h"
#include "common/status.h"
#include "kv/kv_store.h"

namespace txrep::core {

/// The per-transaction exclusive buffer of the paper (§5): during the
/// execution phase, "all the changes that are being done by a transaction are
/// stored in the transaction buffer and the transaction does not affect data
/// in the key-value store".
///
/// Implements the KvStore interface so that the Query Translator (and the
/// B-link tree underneath it) runs unchanged against it:
///  - GET reads the buffer first; on miss it reads the base store, records
///    the key in the *read set*, and caches the result (including negative
///    results) for future accesses — the paper's read-through buffer.
///  - PUT / DELETE only touch the buffer and record the key in the
///    *write set*; DELETE is a tombstone.
///  - Prefetch() reads a batch of keys in one MultiGet into a side map
///    (restart support, DESIGN.md §3). A prefetched key becomes a read (joins
///    the read set and the cache) only when GET first asks for it, so the
///    read set is exactly what an execution without the prefetch records.
///
/// After execution, the read/write sets drive conflict detection
/// (Algorithm 1) and ApplyTo() publishes the writes (bottom thread pool).
///
/// Not thread-safe: a buffer belongs to exactly one executing transaction.
class TxnBuffer : public kv::KvStore {
 public:
  explicit TxnBuffer(kv::KvStore* base);

  TxnBuffer(const TxnBuffer&) = delete;
  TxnBuffer& operator=(const TxnBuffer&) = delete;

  // KvStore interface (buffered semantics).
  Status Put(const kv::Key& key, const kv::Value& value) override;
  Result<kv::Value> Get(const kv::Key& key) override;
  Status Delete(const kv::Key& key) override;
  bool Contains(const kv::Key& key) override;
  size_t Size() override;
  kv::StoreDump Dump() override;

  /// Reads `keys` from the base store in one MultiGet round trip. Values and
  /// NotFound results are kept in a side map that GET consults after own
  /// writes and the read cache; an entry that failed (e.g. Unavailable) is
  /// dropped, so GET re-reads that key itself — a prefetch never fails the
  /// transaction. Nothing joins the read set until GET asks for it.
  void Prefetch(std::span<const kv::Key> keys);

  /// Drops the prefetched entries GET never asked for (call once the body
  /// returned; they are not reads and only hold memory).
  void DiscardUnreadPrefetch();

  /// Drops every buffered value — write values, the read cache and any
  /// prefetched entries — keeping read_set() and write_set(). For a buffer
  /// whose writes were applied: conflict detection only needs its key sets.
  /// GET, ApplyTo and WriteBatch are meaningless afterwards.
  void ReleaseValues();

  /// Keys read from the base store (i.e., not satisfied by own writes).
  const std::unordered_set<std::string>& read_set() const { return read_set_; }

  /// Keys written (PUT or DELETE) by this transaction.
  const std::unordered_set<std::string>& write_set() const {
    return write_set_;
  }

  /// Number of buffered write entries.
  size_t WriteCount() const { return writes_.size(); }

  /// The coalesced write set as an ordered batch (sorted-key order; one
  /// entry per key — later writes to a key already replaced earlier ones in
  /// the buffer). This is what the batched apply path dispatches.
  kv::KvWriteBatch WriteBatch() const;

  /// Publishes the buffered writes to `target` in sorted-key order as one
  /// MultiWrite batch (deterministic; idempotent, so safe to re-run after a
  /// transient error).
  Status ApplyTo(kv::KvStore* target) const;

 private:
  struct WriteEntry {
    bool tombstone = false;
    kv::Value value;
  };

  kv::KvStore* base_;  // Not owned.

  // Writes override cache; keys ordered for deterministic ApplyTo.
  std::map<kv::Key, WriteEntry> writes_;
  // Read-through cache: nullopt = cached NotFound.
  std::unordered_map<kv::Key, std::optional<kv::Value>> read_cache_;
  // Prefetched, not yet read (same encoding as read_cache_).
  std::unordered_map<kv::Key, std::optional<kv::Value>> prefetched_;
  std::unordered_set<std::string> read_set_;
  std::unordered_set<std::string> write_set_;
};

}  // namespace txrep::core

#endif  // TXREP_CORE_TXN_BUFFER_H_
