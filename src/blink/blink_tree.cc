#include "blink/blink_tree.h"

#include <algorithm>
#include <set>

#include "codec/kv_keys.h"
#include "common/clock.h"
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

/// Backoff between parent-level retry rounds (DescendToLevel waiting out an
/// in-flight root publication).
constexpr int64_t kParentWaitMicros = 50;
}  // namespace

BlinkTree::BlinkTree(kv::KvStore* store, std::string table, std::string column,
                     BlinkTreeOptions options)
    : store_(store),
      table_(std::move(table)),
      column_(std::move(column)),
      options_(options),
      meta_key_(codec::BlinkMetaKey(table_, column_)) {
  if (options_.metrics != nullptr) {
    const obs::Labels labels = {{"index", table_ + "." + column_}};
    c_read_retries_ =
        options_.metrics->GetCounter(obs::kBlinkReadRetries, labels);
    c_obsolete_hits_ =
        options_.metrics->GetCounter(obs::kBlinkObsoleteHits, labels);
  }
}

std::string BlinkTree::NodeKey(uint64_t id) const {
  return codec::BlinkNodeKey(table_, column_, id);
}

Result<BlinkNode> BlinkTree::ReadNode(uint64_t id) {
  TXREP_ASSIGN_OR_RETURN(kv::Value bytes, store_->Get(NodeKey(id)));
  return DecodeBlinkNode(bytes);
}

Result<BlinkNode> BlinkTree::ReadNodeOpt(uint64_t id) {
  // Ids beyond the latch table would force a giant segment allocation; a
  // well-formed tree never produces them (AllocateNodeId bounds the counter),
  // so treat them as corrupt pointers before touching the table.
  if (id == 0 || id >= OptLatchTable::kCapacity) {
    return Status::Corruption("blink: node id " + std::to_string(id) +
                              " outside latch-table range");
  }
  OptLatch& latch = latches_.Get(id);
  SpinBackoff backoff;
  for (int attempt = 0; attempt < options_.max_read_attempts; ++attempt) {
    int spins = 0;
    const uint64_t snapshot = latch.ReadBegin(&spins);
    if (spins > 0) read_spins_.fetch_add(spins, std::memory_order_relaxed);
    if (OptLatch::IsObsolete(snapshot)) {
      obsolete_hits_.fetch_add(1, std::memory_order_relaxed);
      if (c_obsolete_hits_ != nullptr) c_obsolete_hits_->Increment();
      return Status::Aborted("blink: node " + std::to_string(id) +
                             " is obsolete; restart from root");
    }
    Result<kv::Value> bytes = store_->Get(NodeKey(id));
    if (bytes.ok()) {
      Result<BlinkNode> node = DecodeBlinkNode(*bytes);
      if (latch.ReadValidate(snapshot)) {
        // No writer overlapped the GET+decode: a decode failure here is real
        // corruption, not a torn read.
        return node;
      }
    } else if (!bytes.status().IsNotFound()) {
      return bytes.status();
    } else if (latch.ReadValidate(snapshot)) {
      // The snapshot genuinely lacks this object — a pointer dangled into a
      // stale buffered view. Poison the latch so every later reader restarts
      // from the root immediately instead of re-fetching.
      latch.MarkObsolete();
      obsolete_hits_.fetch_add(1, std::memory_order_relaxed);
      if (c_obsolete_hits_ != nullptr) c_obsolete_hits_->Increment();
      return Status::Aborted("blink: node " + std::to_string(id) +
                             " missing from snapshot");
    }
    read_retries_.fetch_add(1, std::memory_order_relaxed);
    if (c_read_retries_ != nullptr) c_read_retries_->Increment();
    backoff.Pause();
  }
  return Status::Aborted("blink: node " + std::to_string(id) +
                         " read did not stabilize after " +
                         std::to_string(options_.max_read_attempts) +
                         " attempts");
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
  OptGuard guard(&meta_latch_);
  TXREP_ASSIGN_OR_RETURN(BlinkMeta meta, ReadMeta());
  const uint64_t id = meta.next_id++;
  if (id >= OptLatchTable::kCapacity) {
    return Status::Corruption("blink: node id space exhausted at " +
                              std::to_string(id));
  }
  Status put = WriteMeta(meta);
  guard.PublishAndRelease();  // The store may hold the new counter on error.
  TXREP_RETURN_IF_ERROR(put);
  return id;
}

Status BlinkTree::Init() {
  OptGuard guard(&meta_latch_);
  Result<kv::Value> existing = store_->Get(meta_key_);
  if (existing.ok()) return Status::OK();
  if (!existing.status().IsNotFound()) return existing.status();

  BlinkMeta meta;
  meta.root_id = 1;
  meta.next_id = 2;
  BlinkNode root;  // Empty leaf, no high key, no right sibling.
  TXREP_RETURN_IF_ERROR(WriteNode(meta.root_id, root));
  Status put = WriteMeta(meta);
  guard.PublishAndRelease();
  return put;
}

size_t BlinkTree::ChildIndexFor(const BlinkNode& node, const EntryKey& key) {
  // child[i] covers keys <= separators[i]; the last child covers the rest.
  auto it = std::lower_bound(node.separators.begin(), node.separators.end(),
                             key);
  return static_cast<size_t>(it - node.separators.begin());
}

Result<BlinkTree::LeafView> BlinkTree::DescendToLeafView(
    const EntryKey& key, std::vector<uint64_t>* path) {
  for (int restart = 0;; ++restart) {
    if (restart > 0) {
      read_restarts_.fetch_add(1, std::memory_order_relaxed);
      if (restart >= options_.max_read_restarts) {
        return Status::Aborted("blink: descent to leaf did not stabilize "
                               "after " +
                               std::to_string(options_.max_read_restarts) +
                               " restarts");
      }
      if (path != nullptr) path->clear();
    }
    // The meta read needs no validation: a stale root is still a correct
    // entry point — right-links and extra descent steps repair the rest.
    TXREP_ASSIGN_OR_RETURN(BlinkMeta meta, ReadMeta());
    uint64_t id = meta.root_id;
    int64_t want_level = -1;
    int hops = 0;
    bool from_root = false;
    while (!from_root) {
      Result<BlinkNode> node = ReadNodeOpt(id);
      if (!node.ok()) {
        if (node.status().IsAborted()) {
          from_root = true;  // Obsolete/unstable node: restart the descent.
          break;
        }
        return node.status();
      }
      if (!AtExpectedLevel(*node, want_level)) {
        from_root = true;  // Stitched snapshot: restart the descent.
        break;
      }
      want_level = node->level;
      if (BeyondNode(*node, key)) {
        if (node->right_id == 0) {
          return Status::Corruption("blink: high key set on rightmost node " +
                                    std::to_string(id));
        }
        move_rights_.fetch_add(1, std::memory_order_relaxed);
        if (++hops >= options_.max_move_right) {
          from_root = true;  // Runaway right chain: restart the descent.
          break;
        }
        id = node->right_id;  // Move right; same level, not recorded on path.
        continue;
      }
      if (node->is_leaf()) return LeafView{id, *std::move(node)};
      if (path != nullptr) path->push_back(id);
      --want_level;
      id = node->children[ChildIndexFor(*node, key)];
    }
  }
}

Result<uint64_t> BlinkTree::DescendToLeaf(const EntryKey& key,
                                          std::vector<uint64_t>* path) {
  TXREP_ASSIGN_OR_RETURN(LeafView view, DescendToLeafView(key, path));
  return view.id;
}

Result<uint64_t> BlinkTree::LeftmostLeaf() {
  for (int restart = 0;; ++restart) {
    if (restart > 0) {
      read_restarts_.fetch_add(1, std::memory_order_relaxed);
      if (restart >= options_.max_read_restarts) {
        return Status::Aborted("blink: leftmost-leaf descent did not "
                               "stabilize after " +
                               std::to_string(options_.max_read_restarts) +
                               " restarts");
      }
    }
    TXREP_ASSIGN_OR_RETURN(BlinkMeta meta, ReadMeta());
    uint64_t id = meta.root_id;
    int64_t want_level = -1;
    bool again = false;
    while (!again) {
      Result<BlinkNode> node = ReadNodeOpt(id);
      if (!node.ok()) {
        if (node.status().IsAborted()) {
          again = true;
          break;
        }
        return node.status();
      }
      if (!AtExpectedLevel(*node, want_level)) {
        again = true;  // Stitched snapshot: restart the descent.
        break;
      }
      if (node->is_leaf()) return id;
      want_level = static_cast<int64_t>(node->level) - 1;
      id = node->children.front();
    }
  }
}

Result<uint64_t> BlinkTree::DescendToLevel(const EntryKey& key,
                                           uint32_t target_level) {
  for (int attempt = 0; attempt < options_.max_parent_retries; ++attempt) {
    if (attempt > 0) {
      // A shallow root or an aborted read means a concurrent split's
      // publication is in flight; we hold no latches here, so the other
      // writer always makes progress. Wait it out (bounded).
      parent_waits_.fetch_add(1, std::memory_order_relaxed);
      SleepForMicros(kParentWaitMicros);
    }
    // Re-read the meta each round: the retry exists precisely to observe a
    // root the previous round could not see yet.
    TXREP_ASSIGN_OR_RETURN(BlinkMeta meta, ReadMeta());
    uint64_t id = meta.root_id;
    int64_t want_level = -1;
    int hops = 0;
    bool retry = false;
    while (!retry) {
      Result<BlinkNode> node = ReadNodeOpt(id);
      if (!node.ok()) {
        if (node.status().IsAborted()) {
          retry = true;
          break;
        }
        return node.status();
      }
      if (!AtExpectedLevel(*node, want_level)) {
        retry = true;  // Stitched snapshot: retry from the root.
        break;
      }
      want_level = node->level;
      if (BeyondNode(*node, key)) {
        if (node->right_id == 0) {
          return Status::Corruption("blink: high key set on rightmost node");
        }
        move_rights_.fetch_add(1, std::memory_order_relaxed);
        if (++hops >= options_.max_move_right) {
          retry = true;
          break;
        }
        id = node->right_id;
        continue;
      }
      if (node->level == target_level) return id;
      if (node->level < target_level) {
        // The root is shallower than the level we need: the writer splitting
        // the old root has not published the new one. Retry from the (next)
        // root instead of erroring — against a live store the new root lands
        // within microseconds.
        retry = true;
        break;
      }
      --want_level;
      id = node->children[ChildIndexFor(*node, key)];
    }
  }
  return Status::Aborted(
      "blink: level " + std::to_string(target_level) +
      " not reachable after " + std::to_string(options_.max_parent_retries) +
      " attempts (in-flight split or stale buffered snapshot)");
}

Result<BlinkTree::LatchedNode> BlinkTree::LatchForKey(uint64_t node_id,
                                                      const EntryKey& key,
                                                      OptGuard& guard) {
  // The guard already latches node_id. Re-read under the latch — raw, not
  // optimistic: ReadNodeOpt would spin forever on our own lock bit — and
  // move right while the key lies beyond the node (it may have been split
  // since our lock-free descent).
  for (int hops = 0;; ++hops) {
    if (hops >= options_.max_move_right) {
      return Status::Aborted("blink: move-right from node " +
                             std::to_string(node_id) + " did not terminate");
    }
    TXREP_ASSIGN_OR_RETURN(BlinkNode node, ReadNode(node_id));
    if (!BeyondNode(node, key)) {
      return LatchedNode{node_id, std::move(node)};
    }
    if (node.right_id == 0) {
      return Status::Corruption("blink: high key set on rightmost node");
    }
    if (node.right_id >= OptLatchTable::kCapacity) {
      return Status::Corruption("blink: node id " +
                                std::to_string(node.right_id) +
                                " outside latch-table range");
    }
    move_rights_.fetch_add(1, std::memory_order_relaxed);
    node_id = node.right_id;
    guard.MoveTo(&latches_.Get(node_id));
  }
}

Status BlinkTree::Insert(const rel::Value& value, const std::string& row_key) {
  const EntryKey key{value, row_key};
  std::vector<uint64_t> path;
  TXREP_ASSIGN_OR_RETURN(uint64_t leaf_id, DescendToLeaf(key, &path));

  OptGuard guard(&latches_.Get(leaf_id));
  TXREP_ASSIGN_OR_RETURN(LatchedNode latched, LatchForKey(leaf_id, key, guard));
  leaf_id = latched.id;
  BlinkNode leaf = std::move(latched.node);

  auto it = std::lower_bound(leaf.entries.begin(), leaf.entries.end(), key);
  if (it != leaf.entries.end() && *it == key) {
    // Untouched node: the guard's destructor releases without a version bump.
    return Status::AlreadyExists("blink entry " + key.DebugString() +
                                 " already present");
  }
  leaf.entries.insert(it, key);

  if (leaf.entries.size() <= options_.max_node_keys) {
    Status put = WriteNode(leaf_id, leaf);
    guard.PublishAndRelease();
    return put;
  }
  return SplitAndPropagate(leaf_id, std::move(leaf), std::move(guard),
                           std::move(path));
}

Status BlinkTree::SplitAndPropagate(uint64_t node_id, BlinkNode node,
                                    OptGuard guard,
                                    std::vector<uint64_t> path) {
  // Allocate the right sibling's id (meta latch; taken while holding the node
  // latch — meta is always the innermost latch, so this cannot deadlock).
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
  // the (atomic) overwrite of the left node publishes the link to it. The
  // right write needs no bump — its latch word was never handed to a reader
  // (the id is unpublished until the left write lands).
  TXREP_RETURN_IF_ERROR(WriteNode(right_id, right));
  Status left_put = WriteNode(node_id, node);
  // Bump even if the left write errored: the store may hold a torn image.
  const uint32_t level = node.level;
  guard.PublishAndRelease();
  TXREP_RETURN_IF_ERROR(left_put);

  return InsertIntoParent(node_id, level, separator, right_id,
                          std::move(path));
}

Status BlinkTree::InsertIntoParent(uint64_t left_id, uint32_t left_level,
                                   const EntryKey& separator,
                                   uint64_t right_id,
                                   std::vector<uint64_t> path) {
  uint64_t parent_id = 0;
  if (!path.empty()) {
    parent_id = path.back();
    path.pop_back();
  } else {
    // Left was the root when we descended (or the remembered path went
    // stale). Either it still is the root (grow a new level) or the tree
    // already grew: locate the parent level from the current root.
    {
      OptGuard meta_guard(&meta_latch_);
      TXREP_ASSIGN_OR_RETURN(BlinkMeta meta, ReadMeta());
      if (meta.root_id == left_id) {
        BlinkNode new_root;
        new_root.level = left_level + 1;
        new_root.separators = {separator};
        new_root.children = {left_id, right_id};
        const uint64_t new_root_id = meta.next_id++;
        if (new_root_id >= OptLatchTable::kCapacity) {
          return Status::Corruption("blink: node id space exhausted at " +
                                    std::to_string(new_root_id));
        }
        TXREP_RETURN_IF_ERROR(WriteNode(new_root_id, new_root));
        meta.root_id = new_root_id;
        Status put = WriteMeta(meta);
        meta_guard.PublishAndRelease();
        return put;
      }
    }
    // The tree grew past us: locate the parent level from the current root.
    // DescendToLevel retries internally while the new root's publication is
    // in flight; exhaustion means this snapshot will never show the level.
    Result<uint64_t> located = DescendToLevel(separator, left_level + 1);
    if (!located.ok()) {
      if (located.status().IsAborted()) {
        return Status::Aborted(
            "blink: parent of node " + std::to_string(left_id) +
            " not reachable (in-flight split or stale buffered snapshot)");
      }
      return located.status();
    }
    parent_id = *located;
  }

  OptGuard guard(&latches_.Get(parent_id));
  TXREP_ASSIGN_OR_RETURN(LatchedNode latched,
                         LatchForKey(parent_id, separator, guard));
  parent_id = latched.id;
  BlinkNode parent = std::move(latched.node);

  // Insert purely by *separator order* (the Lehman–Yao discipline) — never
  // by left_id's position, and without requiring left_id's own pointer to
  // be installed yet:
  //  - if left_id was split again and the newer separator already landed,
  //    position-based insertion would break separator sortedness;
  //  - if left_id's pointer is still in flight (its creator's propagation
  //    has not reached this level), waiting for it can form circular wait
  //    chains between in-flight propagations. Key-ordered insertion is
  //    already correct in that state: keys routed to the stale left
  //    neighbour recover over its right-link, and the in-flight pointer
  //    later lands at its own key position.
  const size_t pos = static_cast<size_t>(
      std::lower_bound(parent.separators.begin(), parent.separators.end(),
                       separator) -
      parent.separators.begin());
  parent.separators.insert(parent.separators.begin() + pos, separator);
  parent.children.insert(parent.children.begin() + pos + 1, right_id);

  if (parent.separators.size() <= options_.max_node_keys) {
    Status put = WriteNode(parent_id, parent);
    guard.PublishAndRelease();
    return put;
  }
  return SplitAndPropagate(parent_id, std::move(parent), std::move(guard),
                           std::move(path));
}

Status BlinkTree::Remove(const rel::Value& value, const std::string& row_key) {
  const EntryKey key{value, row_key};
  TXREP_ASSIGN_OR_RETURN(uint64_t leaf_id, DescendToLeaf(key, nullptr));

  OptGuard guard(&latches_.Get(leaf_id));
  TXREP_ASSIGN_OR_RETURN(LatchedNode latched, LatchForKey(leaf_id, key, guard));
  BlinkNode leaf = std::move(latched.node);

  auto it = std::lower_bound(leaf.entries.begin(), leaf.entries.end(), key);
  if (it == leaf.entries.end() || !(*it == key)) {
    return Status::NotFound("blink entry " + key.DebugString() +
                            " not present");
  }
  leaf.entries.erase(it);
  // B-link simplification: no merge/rebalance; empty leaves are legal and
  // skipped by scans.
  Status put = WriteNode(latched.id, leaf);
  guard.PublishAndRelease();
  return put;
}

Result<bool> BlinkTree::Contains(const rel::Value& value,
                                 const std::string& row_key) {
  const EntryKey key{value, row_key};
  // The descent already validated the leaf image and moved right past any
  // concurrent splits, so the image is authoritative for `key`.
  TXREP_ASSIGN_OR_RETURN(LeafView view, DescendToLeafView(key, nullptr));
  return std::binary_search(view.node.entries.begin(), view.node.entries.end(),
                            key);
}

Result<std::vector<EntryKey>> BlinkTree::RangeScan(const rel::Value& lo,
                                                   const rel::Value& hi) {
  return RangeScanBounds(lo, hi);
}

Result<std::vector<EntryKey>> BlinkTree::RangeScanBounds(
    const std::optional<rel::Value>& lo, const std::optional<rel::Value>& hi) {
  std::vector<EntryKey> out;
  if (lo.has_value() && hi.has_value() && *hi < *lo) return out;

  std::optional<EntryKey> lo_key;
  if (lo.has_value()) lo_key = EntryKey{*lo, ""};

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

    uint64_t id = 0;
    {
      Result<uint64_t> start = lo_key.has_value()
                                   ? DescendToLeaf(*lo_key, nullptr)
                                   : LeftmostLeaf();
      if (!start.ok()) {
        if (start.status().IsAborted()) continue;
        return start.status();
      }
      id = *start;
    }

    int hops = 0;
    bool again = false;
    while (!again) {
      Result<BlinkNode> node_or = ReadNodeOpt(id);
      if (!node_or.ok()) {
        if (node_or.status().IsAborted()) {
          again = true;
          break;
        }
        return node_or.status();
      }
      BlinkNode node = *std::move(node_or);
      if (lo_key.has_value() && BeyondNode(node, *lo_key)) {
        if (node.right_id == 0) {
          return Status::Corruption("blink: high key set on rightmost node " +
                                    std::to_string(id));
        }
        move_rights_.fetch_add(1, std::memory_order_relaxed);
        if (++hops >= options_.max_move_right) {
          again = true;
          break;
        }
        id = node.right_id;
        continue;
      }
      auto it = lo_key.has_value()
                    ? std::lower_bound(node.entries.begin(),
                                       node.entries.end(), *lo_key)
                    : node.entries.begin();
      for (; it != node.entries.end(); ++it) {
        // Entries above the high key have migrated to the right sibling;
        // emit them there, never twice (split-torn images only — a validated
        // image already satisfies the bound, this guards raw snapshots).
        if (node.has_high_key && node.high_key < *it) break;
        if (hi.has_value() && *hi < it->value) return out;
        out.push_back(*it);
      }
      if (node.right_id == 0) return out;
      // Stop early if everything to the right is beyond hi.
      if (hi.has_value() && node.has_high_key && *hi < node.high_key.value) {
        return out;
      }
      if (++hops >= options_.max_move_right) {
        again = true;
        break;
      }
      id = node.right_id;
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
  for (int restart = 0;; ++restart) {
    if (restart > 0) {
      read_restarts_.fetch_add(1, std::memory_order_relaxed);
      if (restart >= options_.max_read_restarts) {
        return Status::Aborted("blink: entry count did not stabilize after " +
                               std::to_string(options_.max_read_restarts) +
                               " restarts");
      }
    }
    Result<uint64_t> start = LeftmostLeaf();
    if (!start.ok()) {
      if (start.status().IsAborted()) continue;
      return start.status();
    }
    uint64_t id = *start;
    size_t count = 0;  // A restart resets the accumulator.
    int hops = 0;
    bool again = false;
    while (!again) {
      Result<BlinkNode> node = ReadNodeOpt(id);
      if (!node.ok()) {
        if (node.status().IsAborted()) {
          again = true;
          break;
        }
        return node.status();
      }
      // Count only entries within the node's own key range: during a split
      // the tail above the high key already lives in the right sibling, and
      // a raw size() would count it twice.
      count += node->CountWithinHighKey();
      if (node->right_id == 0) return count;
      if (++hops >= options_.max_move_right) {
        again = true;
        break;
      }
      id = node->right_id;
    }
  }
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

Status BlinkTree::AuditLatches() {
  if (OptLatch::IsLocked(meta_latch_.RawVersionWord())) {
    return Status::FailedPrecondition(
        "blink: meta latch held on quiesced tree");
  }
  TXREP_ASSIGN_OR_RETURN(BlinkMeta meta, ReadMeta());
  uint64_t level_head = meta.root_id;
  std::set<uint64_t> seen;
  for (;;) {
    TXREP_ASSIGN_OR_RETURN(BlinkNode head, ReadNode(level_head));
    uint64_t id = level_head;
    for (;;) {
      if (!seen.insert(id).second) {
        return Status::Corruption("blink: node " + std::to_string(id) +
                                  " reachable twice (right-link cycle?)");
      }
      TXREP_ASSIGN_OR_RETURN(BlinkNode node, ReadNode(id));
      if (id >= OptLatchTable::kCapacity) {
        return Status::Corruption("blink: node id " + std::to_string(id) +
                                  " outside latch-table range");
      }
      const uint64_t word = latches_.Get(id).RawVersionWord();
      if (OptLatch::IsLocked(word)) {
        return Status::FailedPrecondition("blink: node " + std::to_string(id) +
                                          " latch held on quiesced tree");
      }
      if (OptLatch::IsObsolete(word)) {
        return Status::FailedPrecondition("blink: reachable node " +
                                          std::to_string(id) +
                                          " marked obsolete");
      }
      if (node.right_id == 0) break;
      id = node.right_id;
    }
    if (head.is_leaf()) return Status::OK();
    level_head = head.children.front();
  }
}

BlinkTreeStats BlinkTree::stats() const {
  BlinkTreeStats s;
  s.read_retries = read_retries_.load(std::memory_order_relaxed);
  s.read_spins = read_spins_.load(std::memory_order_relaxed);
  s.obsolete_hits = obsolete_hits_.load(std::memory_order_relaxed);
  s.read_restarts = read_restarts_.load(std::memory_order_relaxed);
  s.move_rights = move_rights_.load(std::memory_order_relaxed);
  s.parent_waits = parent_waits_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace txrep::blink
