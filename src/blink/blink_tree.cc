#include "blink/blink_tree.h"

#include <algorithm>
#include <set>

#include "codec/kv_keys.h"
#include "obs/names.h"

namespace txrep::blink {

namespace {
/// A key lies beyond a node iff the node has a high key and key > high.
bool BeyondNode(const BlinkNode& node, const EntryKey& key) {
  return node.has_high_key && node.high_key < key;
}

/// Whether a lock-free walk reached a node at the level it expected (a
/// negative `want` accepts any level: the root). On a consistent store a
/// child sits exactly one level below its parent and a right sibling on its
/// node's level, because node ids are allocated once and never reused. A
/// stale buffered view can stitch node images of different tree shapes
/// together, so a child pointer may lead back up the tree; a descent that
/// followed it would never end. Walks restart from the root instead.
bool AtExpectedLevel(const BlinkNode& node, int64_t want) {
  return want < 0 || node.level == want;
}

/// Right-sibling hops one walk may take along a level before the chain is
/// declared runaway (a cycle in a stitched view).
constexpr int kMaxMoveRight = 1 << 16;

/// The least entry key: NULL sorts before every other value, "" before
/// every row key. A descent for it reaches the leftmost node of a level.
EntryKey LeastKey() { return EntryKey{rel::Value::Null(), ""}; }
}  // namespace

BlinkTree::BlinkTree(kv::KvStore* store, std::string table, std::string column,
                     BlinkTreeOptions options)
    : store_(store),
      table_(std::move(table)),
      column_(std::move(column)),
      options_(options),
      meta_key_(codec::BlinkMetaKey(table_, column_)) {}

std::string BlinkTree::NodeKey(uint64_t id) const {
  return codec::BlinkNodeKey(table_, column_, id);
}

Result<BlinkNode> BlinkTree::ReadNode(uint64_t id) {
  Result<kv::Value> bytes = store_->Get(NodeKey(id));
  if (!bytes.ok()) {
    if (!bytes.status().IsNotFound()) return bytes.status();
    missing_nodes_.fetch_add(1, std::memory_order_relaxed);
    if (options_.metrics != nullptr) {
      // Looked up here, not in the constructor: nearly every tree is a
      // per-statement local that never misses a node.
      options_.metrics
          ->GetCounter(obs::kBlinkMissingNodes,
                       {{"index", table_ + "." + column_}})
          ->Increment();
    }
    return Status::Aborted("blink: node " + std::to_string(id) +
                           " missing from the store view");
  }
  return DecodeBlinkNode(*bytes);
}

Status BlinkTree::WriteNode(uint64_t id, const BlinkNode& node) {
  return store_->Put(NodeKey(id), EncodeBlinkNode(node));
}

Result<BlinkMeta> BlinkTree::ReadMeta() {
  TXREP_ASSIGN_OR_RETURN(kv::Value bytes, store_->Get(meta_key_));
  return DecodeBlinkMeta(bytes);
}

Status BlinkTree::WriteMeta(const BlinkMeta& meta) {
  return store_->Put(meta_key_, EncodeBlinkMeta(meta));
}

Result<uint64_t> BlinkTree::AllocateNodeId() {
  TXREP_ASSIGN_OR_RETURN(BlinkMeta meta, ReadMeta());
  const uint64_t id = meta.next_id++;
  TXREP_RETURN_IF_ERROR(WriteMeta(meta));
  return id;
}

Status BlinkTree::Init() {
  Result<kv::Value> existing = store_->Get(meta_key_);
  if (existing.ok()) return Status::OK();
  if (!existing.status().IsNotFound()) return existing.status();

  BlinkMeta meta;
  meta.root_id = 1;
  meta.next_id = 2;
  BlinkNode root;  // Empty leaf, no high key, no right sibling.
  TXREP_RETURN_IF_ERROR(WriteNode(meta.root_id, root));
  return WriteMeta(meta);
}

size_t BlinkTree::ChildIndexFor(const BlinkNode& node, const EntryKey& key) {
  // child[i] covers keys <= separators[i]; the last child covers the rest.
  auto it = std::lower_bound(node.separators.begin(), node.separators.end(),
                             key);
  return static_cast<size_t>(it - node.separators.begin());
}

Result<BlinkTree::NodeView> BlinkTree::MoveRight(uint64_t id,
                                                 const EntryKey& key,
                                                 int64_t level) {
  for (int hops = 0;; ++hops) {
    TXREP_ASSIGN_OR_RETURN(BlinkNode node, ReadNode(id));
    if (!AtExpectedLevel(node, level)) {
      return Status::Aborted("blink: node " + std::to_string(id) +
                             " is off its expected level (stitched view)");
    }
    if (!BeyondNode(node, key)) return NodeView{id, std::move(node)};
    if (node.right_id == 0) {
      return Status::Corruption("blink: high key set on rightmost node " +
                                std::to_string(id));
    }
    if (hops >= kMaxMoveRight) {
      return Status::Aborted("blink: move-right from node " +
                             std::to_string(id) + " did not terminate");
    }
    move_rights_.fetch_add(1, std::memory_order_relaxed);
    level = node.level;  // Same level; not recorded on the path.
    id = node.right_id;
  }
}

Result<BlinkTree::NodeView> BlinkTree::Descend(const EntryKey& key,
                                               uint32_t level,
                                               std::vector<uint64_t>* path) {
  for (int restart = 0;; ++restart) {
    if (restart > 0) {
      read_restarts_.fetch_add(1, std::memory_order_relaxed);
      if (restart >= options_.max_read_restarts) {
        return Status::Aborted("blink: descent to level " +
                               std::to_string(level) +
                               " did not stabilize after " +
                               std::to_string(options_.max_read_restarts) +
                               " restarts");
      }
      if (path != nullptr) path->clear();
    }
    // A stale root is still a correct entry point — right-links and extra
    // descent steps repair the rest.
    TXREP_ASSIGN_OR_RETURN(BlinkMeta meta, ReadMeta());
    uint64_t id = meta.root_id;
    int64_t want_level = -1;
    for (;;) {
      Result<NodeView> view = MoveRight(id, key, want_level);
      if (!view.ok()) {
        if (view.status().IsAborted()) break;  // Restart the descent.
        return view.status();
      }
      const BlinkNode& node = view->node;
      if (node.level == level) return *std::move(view);
      if (node.level < level) {
        return Status::Aborted("blink: root " + std::to_string(view->id) +
                               " sits below level " + std::to_string(level));
      }
      if (path != nullptr) path->push_back(view->id);
      want_level = static_cast<int64_t>(node.level) - 1;
      id = node.children[ChildIndexFor(node, key)];
    }
  }
}

Status BlinkTree::Insert(const rel::Value& value, const std::string& row_key) {
  const EntryKey key{value, row_key};
  std::vector<uint64_t> path;
  TXREP_ASSIGN_OR_RETURN(NodeView leaf, Descend(key, 0, &path));

  auto& entries = leaf.node.entries;
  auto it = std::lower_bound(entries.begin(), entries.end(), key);
  if (it != entries.end() && *it == key) {
    return Status::AlreadyExists("blink entry " + key.DebugString() +
                                 " already present");
  }
  entries.insert(it, key);

  if (entries.size() <= options_.max_node_keys) {
    return WriteNode(leaf.id, leaf.node);
  }
  return SplitAndPropagate(leaf.id, std::move(leaf.node), std::move(path));
}

Status BlinkTree::SplitAndPropagate(uint64_t node_id, BlinkNode node,
                                    std::vector<uint64_t> path) {
  TXREP_ASSIGN_OR_RETURN(uint64_t right_id, AllocateNodeId());

  BlinkNode right;
  right.level = node.level;
  right.has_high_key = node.has_high_key;
  right.high_key = node.high_key;
  right.right_id = node.right_id;

  EntryKey separator;
  if (node.is_leaf()) {
    const size_t mid = node.entries.size() / 2;
    separator = node.entries[mid - 1];  // Max key staying left.
    right.entries.assign(node.entries.begin() + mid, node.entries.end());
    node.entries.resize(mid);
  } else {
    // Promote the middle separator: it leaves the node and becomes both the
    // left half's high key and the parent's new routing key.
    const size_t mid = node.separators.size() / 2;
    separator = node.separators[mid];
    right.separators.assign(node.separators.begin() + mid + 1,
                            node.separators.end());
    right.children.assign(node.children.begin() + mid + 1,
                          node.children.end());
    node.separators.resize(mid);
    node.children.resize(mid + 1);
  }
  node.has_high_key = true;
  node.high_key = separator;
  node.right_id = right_id;

  // Order matters for lock-free readers: the new right node must exist before
  // the (atomic) overwrite of the left node publishes the link to it.
  TXREP_RETURN_IF_ERROR(WriteNode(right_id, right));
  TXREP_RETURN_IF_ERROR(WriteNode(node_id, node));

  return InsertIntoParent(node_id, node.level, separator, right_id,
                          std::move(path));
}

Status BlinkTree::InsertIntoParent(uint64_t left_id, uint32_t left_level,
                                   const EntryKey& separator,
                                   uint64_t right_id,
                                   std::vector<uint64_t> path) {
  const uint32_t parent_level = left_level + 1;
  if (path.empty()) {
    // Left was the root when we descended (or the remembered path went
    // stale). Either it still is the root (grow a new level) or the tree
    // already grew: locate the parent level from the current root below.
    TXREP_ASSIGN_OR_RETURN(BlinkMeta meta, ReadMeta());
    if (meta.root_id == left_id) {
      BlinkNode new_root;
      new_root.level = parent_level;
      new_root.separators = {separator};
      new_root.children = {left_id, right_id};
      const uint64_t new_root_id = meta.next_id++;
      // The new root exists before the meta object names it.
      TXREP_RETURN_IF_ERROR(WriteNode(new_root_id, new_root));
      meta.root_id = new_root_id;
      return WriteMeta(meta);
    }
  }
  Result<NodeView> located =
      path.empty() ? Descend(separator, parent_level, nullptr)
                   : MoveRight(path.back(), separator, parent_level);
  if (!path.empty()) path.pop_back();
  if (!located.ok()) {
    if (located.status().IsAborted()) {
      // A stale buffered view that will never show the parent level; the
      // TM re-executes on a fresher one.
      return Status::Aborted("blink: parent of node " +
                             std::to_string(left_id) + " not reachable (" +
                             located.status().ToString() + ")");
    }
    return located.status();
  }
  const uint64_t parent_id = located->id;
  BlinkNode& parent = located->node;

  // Insert purely by *separator order* (the Lehman–Yao discipline) — never
  // by left_id's position, and without requiring left_id's own pointer to
  // be installed yet: if left_id was split again and the newer separator
  // already landed, position-based insertion would break separator
  // sortedness, while key-ordered insertion keeps keys routed to a stale
  // left neighbour recoverable over its right-link.
  const size_t pos = static_cast<size_t>(
      std::lower_bound(parent.separators.begin(), parent.separators.end(),
                       separator) -
      parent.separators.begin());
  parent.separators.insert(parent.separators.begin() + pos, separator);
  parent.children.insert(parent.children.begin() + pos + 1, right_id);

  if (parent.separators.size() <= options_.max_node_keys) {
    return WriteNode(parent_id, parent);
  }
  return SplitAndPropagate(parent_id, std::move(parent), std::move(path));
}

Status BlinkTree::Remove(const rel::Value& value, const std::string& row_key) {
  const EntryKey key{value, row_key};
  TXREP_ASSIGN_OR_RETURN(NodeView leaf, Descend(key, 0, nullptr));

  auto& entries = leaf.node.entries;
  auto it = std::lower_bound(entries.begin(), entries.end(), key);
  if (it == entries.end() || !(*it == key)) {
    return Status::NotFound("blink entry " + key.DebugString() +
                            " not present");
  }
  entries.erase(it);
  // B-link simplification: no merge/rebalance; empty leaves are legal and
  // skipped by scans.
  return WriteNode(leaf.id, leaf.node);
}

Result<bool> BlinkTree::Contains(const rel::Value& value,
                                 const std::string& row_key) {
  const EntryKey key{value, row_key};
  // The descent moved right past any split it did not see, so the leaf image
  // is authoritative for `key`.
  TXREP_ASSIGN_OR_RETURN(NodeView leaf, Descend(key, 0, nullptr));
  return std::binary_search(leaf.node.entries.begin(),
                            leaf.node.entries.end(), key);
}

Result<std::vector<EntryKey>> BlinkTree::RangeScan(const rel::Value& lo,
                                                   const rel::Value& hi) {
  return RangeScanBounds(lo, hi);
}

Result<std::vector<EntryKey>> BlinkTree::RangeScanBounds(
    const std::optional<rel::Value>& lo, const std::optional<rel::Value>& hi) {
  std::vector<EntryKey> out;
  if (lo.has_value() && hi.has_value() && *hi < *lo) return out;
  const EntryKey lo_key = lo.has_value() ? EntryKey{*lo, ""} : LeastKey();

  for (int restart = 0;; ++restart) {
    if (restart > 0) {
      read_restarts_.fetch_add(1, std::memory_order_relaxed);
      if (restart >= options_.max_read_restarts) {
        return Status::Aborted("blink: range scan did not stabilize after " +
                               std::to_string(options_.max_read_restarts) +
                               " restarts");
      }
      out.clear();  // Partial output from the torn walk is discarded.
    }

    TXREP_ASSIGN_OR_RETURN(NodeView leaf, Descend(lo_key, 0, nullptr));
    BlinkNode node = std::move(leaf.node);
    for (int hops = 0;; ++hops) {
      auto it = std::lower_bound(node.entries.begin(), node.entries.end(),
                                 lo_key);
      for (; it != node.entries.end(); ++it) {
        // Entries above the high key have migrated to the right sibling;
        // emit them there, never twice (a split-torn image in a buffered
        // view can still hold them).
        if (node.has_high_key && node.high_key < *it) break;
        if (hi.has_value() && *hi < it->value) return out;
        out.push_back(*it);
      }
      if (node.right_id == 0) return out;
      // Stop early if everything to the right is beyond hi.
      if (hi.has_value() && node.has_high_key && *hi < node.high_key.value) {
        return out;
      }
      if (hops >= kMaxMoveRight) break;  // Runaway right chain: restart.
      Result<BlinkNode> next = ReadNode(node.right_id);
      if (!next.ok()) {
        if (next.status().IsAborted()) break;  // Missing sibling: restart.
        return next.status();
      }
      if (!AtExpectedLevel(*next, 0)) break;  // Stitched view: restart.
      node = *std::move(next);
    }
  }
}

Result<std::vector<std::string>> BlinkTree::RangeScanRowKeys(
    const rel::Value& lo, const rel::Value& hi) {
  TXREP_ASSIGN_OR_RETURN(std::vector<EntryKey> entries, RangeScan(lo, hi));
  std::vector<std::string> row_keys;
  row_keys.reserve(entries.size());
  for (EntryKey& e : entries) row_keys.push_back(std::move(e.row_key));
  return row_keys;
}

Result<size_t> BlinkTree::EntryCount() {
  TXREP_ASSIGN_OR_RETURN(std::vector<EntryKey> entries,
                         RangeScanBounds(std::nullopt, std::nullopt));
  return entries.size();
}

Status BlinkTree::Validate() {
  TXREP_ASSIGN_OR_RETURN(BlinkMeta meta, ReadMeta());
  // Walk each level via the leftmost spine; validate every node on the level.
  uint64_t level_head = meta.root_id;
  std::set<uint64_t> seen;
  int64_t expected_level = -1;
  for (;;) {
    TXREP_ASSIGN_OR_RETURN(BlinkNode head, ReadNode(level_head));
    if (expected_level == -1) {
      expected_level = head.level;
    } else if (head.level != expected_level) {
      return Status::Corruption("blink: level mismatch on leftmost spine");
    }
    uint64_t id = level_head;
    for (;;) {
      TXREP_ASSIGN_OR_RETURN(BlinkNode node, ReadNode(id));
      if (!seen.insert(id).second) {
        return Status::Corruption("blink: node " + std::to_string(id) +
                                  " reachable twice (right-link cycle?)");
      }
      if (node.level != head.level) {
        return Status::Corruption("blink: right chain crosses levels at " +
                                  std::to_string(id));
      }
      const auto& keys = node.is_leaf() ? node.entries : node.separators;
      for (size_t i = 0; i + 1 < keys.size(); ++i) {
        if (!(keys[i] < keys[i + 1])) {
          return Status::Corruption("blink: unsorted keys in node " +
                                    std::to_string(id));
        }
      }
      if (!node.is_leaf() &&
          node.children.size() != node.separators.size() + 1) {
        return Status::Corruption("blink: bad fanout arity in node " +
                                  std::to_string(id));
      }
      if (node.has_high_key) {
        for (const EntryKey& k : keys) {
          if (node.high_key < k) {
            return Status::Corruption("blink: key above high key in node " +
                                      std::to_string(id));
          }
        }
        if (node.right_id == 0) {
          return Status::Corruption(
              "blink: high key set on rightmost node " + std::to_string(id));
        }
      } else if (node.right_id != 0) {
        return Status::Corruption("blink: rightmost-looking node " +
                                  std::to_string(id) + " has right sibling");
      }
      if (!node.is_leaf()) {
        // Children must live exactly one level down.
        for (uint64_t child : node.children) {
          TXREP_ASSIGN_OR_RETURN(BlinkNode child_node, ReadNode(child));
          if (child_node.level + 1 != node.level) {
            return Status::Corruption("blink: child level gap under node " +
                                      std::to_string(id));
          }
        }
      }
      if (node.right_id == 0) break;
      id = node.right_id;
    }
    if (head.is_leaf()) return Status::OK();
    level_head = head.children.front();
    expected_level = static_cast<int64_t>(head.level) - 1;
  }
}

BlinkTreeStats BlinkTree::stats() const {
  BlinkTreeStats s;
  s.missing_nodes = missing_nodes_.load(std::memory_order_relaxed);
  s.read_restarts = read_restarts_.load(std::memory_order_relaxed);
  s.move_rights = move_rights_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace txrep::blink
