#include "codec/kv_keys.h"

#include "codec/value_codec.h"

namespace txrep::codec {

std::string RowKey(std::string_view table, const rel::Value& pk) {
  return KeyEscapeIdentifier(table) + "_" + KeyEncodeValue(pk);
}

std::string HashIndexKey(std::string_view table, std::string_view column,
                         const rel::Value& value) {
  return KeyEscapeIdentifier(table) + "_" + KeyEscapeIdentifier(column) + "_" +
         KeyEncodeValue(value);
}

std::string BlinkNodeKey(std::string_view table, std::string_view column,
                         uint64_t node_id) {
  return "!b_" + KeyEscapeIdentifier(table) + "_" +
         KeyEscapeIdentifier(column) + "_" + std::to_string(node_id);
}

std::string BlinkMetaKey(std::string_view table, std::string_view column) {
  return "!bmeta_" + KeyEscapeIdentifier(table) + "_" +
         KeyEscapeIdentifier(column);
}

KeyClass ClassifyKey(std::string_view key) {
  if (key.starts_with("!bmeta_")) return KeyClass::kBlinkMeta;
  if (key.starts_with("!b_")) return KeyClass::kBlinkNode;
  const size_t first = key.find('_');
  if (first != std::string_view::npos &&
      key.find('_', first + 1) != std::string_view::npos) {
    return KeyClass::kHashIndex;
  }
  return KeyClass::kRow;
}

const char* KeyClassName(KeyClass key_class) {
  switch (key_class) {
    case KeyClass::kRow:
      return "row";
    case KeyClass::kHashIndex:
      return "hash";
    case KeyClass::kBlinkNode:
      return "blink_node";
    case KeyClass::kBlinkMeta:
      return "blink_meta";
  }
  return "?";
}

}  // namespace txrep::codec
