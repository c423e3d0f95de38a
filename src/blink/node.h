#ifndef TXREP_BLINK_NODE_H_
#define TXREP_BLINK_NODE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "rel/value.h"

namespace txrep::blink {

/// Composite index entry key: (attribute value, row key). Making the row key
/// part of the key keeps duplicate attribute values distinct, so deletions
/// are exact and leaves never grow unbounded posting lists.
struct EntryKey {
  rel::Value value;
  std::string row_key;

  std::string DebugString() const;
};

bool operator==(const EntryKey& a, const EntryKey& b);
bool operator<(const EntryKey& a, const EntryKey& b);
inline bool operator<=(const EntryKey& a, const EntryKey& b) {
  return !(b < a);
}
inline bool operator>(const EntryKey& a, const EntryKey& b) { return b < a; }

/// One B-link tree node, stored as a single key-value object (paper §4.2:
/// "We create a key-value object for each B-link tree node").
///
/// Invariants:
///  - leaf (level 0): `entries` sorted strictly ascending; separators/children
///    empty.
///  - internal (level > 0): `separators` sorted strictly ascending,
///    `children.size() == separators.size() + 1`; child[i] covers keys
///    <= separators[i], child[n] covers the rest (bounded by high_key).
///  - `has_high_key` false only on the rightmost node of its level; otherwise
///    every key in the node is <= high_key and high_key < every key of the
///    right sibling.
struct BlinkNode {
  uint32_t level = 0;  // 0 = leaf.
  bool has_high_key = false;
  EntryKey high_key;
  uint64_t right_id = 0;  // 0 = no right sibling.

  std::vector<EntryKey> entries;     // Leaf payload.
  std::vector<EntryKey> separators;  // Internal routing keys.
  std::vector<uint64_t> children;    // Internal child node ids.

  bool is_leaf() const { return level == 0; }
  size_t KeyCount() const {
    return is_leaf() ? entries.size() : separators.size();
  }

  std::string DebugString() const;
};

/// Tree anchor object: current root and the node-id allocator. Stored under
/// BlinkMetaKey so that id allocation and root changes flow through the same
/// key-value (and hence transaction-conflict) machinery as everything else.
struct BlinkMeta {
  uint64_t root_id = 0;
  uint64_t next_id = 1;
};

std::string EncodeBlinkNode(const BlinkNode& node);
Result<BlinkNode> DecodeBlinkNode(std::string_view bytes);

std::string EncodeBlinkMeta(const BlinkMeta& meta);
Result<BlinkMeta> DecodeBlinkMeta(std::string_view bytes);

}  // namespace txrep::blink

#endif  // TXREP_BLINK_NODE_H_
