#ifndef TXREP_BLINK_BLINK_TREE_H_
#define TXREP_BLINK_BLINK_TREE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "blink/node.h"
#include "common/result.h"
#include "common/status.h"
#include "kv/kv_store.h"
#include "obs/metrics.h"
#include "rel/value.h"

namespace txrep::blink {

/// Tuning knobs for a B-link tree.
struct BlinkTreeOptions {
  /// Maximum keys per node before a split; split yields two ~half-full nodes.
  size_t max_node_keys = 32;

  /// Traversals restart from the root at most this often (after a missing
  /// node, a node off its expected level, or a runaway right chain) before
  /// they give up with Aborted.
  int max_read_restarts = 64;

  /// Optional registry (must outlive the tree) receiving the missing-node
  /// counter, labeled {index="TABLE.COLUMN"}. The tree looks the counter up
  /// at each missing node, so a tree that meets none (almost every
  /// per-statement tree) neither takes the registry mutex nor adds a series.
  /// The stats() snapshot works with or without it.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Traversal counters of one BlinkTree instance (snapshot via stats()).
struct BlinkTreeStats {
  /// Node reads that found no object in the store view.
  int64_t missing_nodes = 0;
  /// Traversals restarted from the root.
  int64_t read_restarts = 0;
  /// Right-sibling hops taken to repair splits the descent did not see.
  int64_t move_rights = 0;
};

/// Lehman–Yao B-link tree mapped onto key-value objects (paper §4.2).
///
/// Every node is one KV object (`!b_TABLE_COLUMN_id`); the anchor (root
/// pointer + node-id allocator) is one KV object (`!bmeta_TABLE_COLUMN`).
/// Because all state lives in the store:
///  - lookups and range scans take **no locks** — each node visit is one
///    atomic GET of a whole node image, and the right-sibling links repair
///    any split the descent did not see (the paper's property (2):
///    "read-only transactions can access the B-link tree ... without being
///    blocked by updates");
///  - when the "store" is a transaction buffer, the node reads/writes become
///    ordinary key conflicts handled by the TM (the paper's property (1)).
///
/// Contract (DESIGN.md §14): one writer per store view at a time, any number
/// of lock-free readers. The system meets it without locks — each
/// TxnBuffer is used by one thread, appliers publish node images as write
/// sets and never run tree code, and Algorithm 1 never applies two
/// transactions that write the same node or meta object at once. A split
/// writes the new right sibling before the left node that links to it, and
/// a new root before the meta object that names it, so a reader on a live
/// store always finds what it follows.
///
/// A reader that cannot finish on the view it sees — a node missing from it
/// (a stale buffered view, or a sibling whose write has not landed yet), a
/// node off its expected level (a buffered view stitched from two tree
/// shapes), a runaway right chain — restarts from the root and reads the
/// store again, up to max_read_restarts times, then returns Aborted. The TM
/// re-executes an Aborted transaction on a fresher view. Deletion follows
/// the usual B-link simplification: underfull/empty nodes are allowed and
/// skipped by scans, no merging.
class BlinkTree {
 public:
  BlinkTree(kv::KvStore* store, std::string table, std::string column,
            BlinkTreeOptions options = {});

  BlinkTree(const BlinkTree&) = delete;
  BlinkTree& operator=(const BlinkTree&) = delete;

  /// Creates the meta + empty root objects if the tree does not exist yet.
  /// Idempotent.
  Status Init();

  /// Inserts (value, row_key). AlreadyExists if the exact pair is present.
  Status Insert(const rel::Value& value, const std::string& row_key);

  /// Removes (value, row_key). NotFound if absent.
  Status Remove(const rel::Value& value, const std::string& row_key);

  /// True iff the exact (value, row_key) pair is present. Lock-free.
  Result<bool> Contains(const rel::Value& value, const std::string& row_key);

  /// All entries with lo <= value <= hi, in key order. Lock-free.
  Result<std::vector<EntryKey>> RangeScan(const rel::Value& lo,
                                          const rel::Value& hi);

  /// Open-bounded variant: a missing `lo` means scan from the smallest entry,
  /// a missing `hi` means scan to the largest. Lock-free.
  Result<std::vector<EntryKey>> RangeScanBounds(
      const std::optional<rel::Value>& lo, const std::optional<rel::Value>& hi);

  /// Row keys of RangeScan (the common caller shape).
  Result<std::vector<std::string>> RangeScanRowKeys(const rel::Value& lo,
                                                    const rel::Value& hi);

  /// Total live entries (a full scan's length). Split-safe: each leaf
  /// contributes only entries within its high key, so entries mid-migration
  /// to a fresh right sibling are never counted twice.
  Result<size_t> EntryCount();

  /// Checks structural invariants of every reachable node (sortedness,
  /// fanout arity, level monotonicity, high-key bounds, right-chain
  /// termination). OK when the tree is well-formed. Run on a quiesced tree.
  Status Validate();

  /// Traversal counters accumulated by this instance.
  BlinkTreeStats stats() const;

  const std::string& table() const { return table_; }
  const std::string& column() const { return column_; }

 private:
  friend struct BlinkTreeTestPeer;

  /// A node id together with the image read from the store.
  struct NodeView {
    uint64_t id = 0;
    BlinkNode node;
  };

  // -- node/meta IO ---------------------------------------------------------
  std::string NodeKey(uint64_t id) const;
  /// One atomic GET of node `id`. A missing object is Aborted: the pointer
  /// led into a view that lacks the node, so the caller restarts from the
  /// root and reads the store again.
  Result<BlinkNode> ReadNode(uint64_t id);
  Status WriteNode(uint64_t id, const BlinkNode& node);
  Result<BlinkMeta> ReadMeta();
  Status WriteMeta(const BlinkMeta& meta);

  /// Allocates a fresh node id via read-modify-write on the meta object.
  Result<uint64_t> AllocateNodeId();

  // -- traversal ------------------------------------------------------------
  /// Child pointer covering `key` within an internal node.
  static size_t ChildIndexFor(const BlinkNode& node, const EntryKey& key);

  /// Reads node `id` and follows right-links while `key` lies beyond it.
  /// Every node visited must sit at `level` (a negative `level` accepts the
  /// first node at any level: the root). Aborted on a missing node, a node
  /// off its level or a runaway right chain.
  Result<NodeView> MoveRight(uint64_t id, const EntryKey& key, int64_t level);

  /// Bounded lock-free descent from the root to the node at `level`
  /// (0 = leaf) responsible for `key`, moving right at every level and
  /// recording the internal nodes entered above `level` in `path` (null ok)
  /// for split back-propagation. Restarts from the root up to
  /// max_read_restarts times; a root below `level` is Aborted at once, since
  /// a restart on the same view would see the same root.
  Result<NodeView> Descend(const EntryKey& key, uint32_t level,
                           std::vector<uint64_t>* path);

  // -- write path -----------------------------------------------------------
  /// Splits the overflowing `node` (id `node_id`), writes both halves and
  /// propagates the separator upward. `path` holds the remembered ancestors
  /// (deepest last).
  Status SplitAndPropagate(uint64_t node_id, BlinkNode node,
                           std::vector<uint64_t> path);

  /// Inserts (separator -> right_id) next to `left_id` at level
  /// `left_level + 1`, splitting upward as needed.
  Status InsertIntoParent(uint64_t left_id, uint32_t left_level,
                          const EntryKey& separator, uint64_t right_id,
                          std::vector<uint64_t> path);

  kv::KvStore* store_;  // Not owned.
  const std::string table_;
  const std::string column_;
  const BlinkTreeOptions options_;
  const std::string meta_key_;

  // Traversal counters (relaxed: readers may share the tree with its writer).
  // analyze: lock-free(monotonic relaxed counters; stats() is a snapshot)
  std::atomic<int64_t> missing_nodes_{0};
  // analyze: lock-free(monotonic relaxed counters; stats() is a snapshot)
  std::atomic<int64_t> read_restarts_{0};
  // analyze: lock-free(monotonic relaxed counters; stats() is a snapshot)
  std::atomic<int64_t> move_rights_{0};
};

}  // namespace txrep::blink

#endif  // TXREP_BLINK_BLINK_TREE_H_
