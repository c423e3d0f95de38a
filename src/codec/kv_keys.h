#ifndef TXREP_CODEC_KV_KEYS_H_
#define TXREP_CODEC_KV_KEYS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "rel/value.h"

namespace txrep::codec {

/// Key layout of relational data in the key-value store (paper §4.1):
///
///   row key         TABLE_pk                      e.g. ITEM_1
///   hash-index key  TABLE_COLUMN_value            e.g. ITEM_I%5FCOST_100
///   B-link node key !b_TABLE_COLUMN_nodeId        (range index, §4.2)
///   B-link meta key !bmeta_TABLE_COLUMN           (tree anchor/root pointer)
///
/// Identifiers and string values are percent-escaped (see KeyEscapeIdentifier)
/// so that '_' only ever appears as a separator and '!' only as the reserved
/// internal prefix; the layout is therefore injective.

/// Key of the KV object holding the tuple with primary key `pk`.
std::string RowKey(std::string_view table, const rel::Value& pk);

/// Key of the hash-index posting object for `column == value`.
std::string HashIndexKey(std::string_view table, std::string_view column,
                         const rel::Value& value);

/// Key of a B-link tree node object.
std::string BlinkNodeKey(std::string_view table, std::string_view column,
                         uint64_t node_id);

/// Key of a B-link tree's metadata object (root pointer, id counter).
std::string BlinkMetaKey(std::string_view table, std::string_view column);

/// The kind of object a key names in the layout above.
enum class KeyClass : uint8_t {
  kRow = 0,
  kHashIndex = 1,
  kBlinkNode = 2,
  kBlinkMeta = 3,
};
inline constexpr int kKeyClassCount = 4;

/// Classifies a key built by the functions above: the reserved prefixes name
/// the B-link objects, and otherwise the number of '_' separators tells a
/// row key (one) from a hash-index key (two). Escaping keeps '_' out of
/// identifiers and values, so this holds for any table, column or value.
KeyClass ClassifyKey(std::string_view key);

/// "row", "hash", "blink_node" or "blink_meta" (a metric label value).
const char* KeyClassName(KeyClass key_class);

}  // namespace txrep::codec

#endif  // TXREP_CODEC_KV_KEYS_H_
