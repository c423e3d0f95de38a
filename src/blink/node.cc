#include "blink/node.h"

#include "codec/encoding.h"
#include "codec/value_codec.h"

namespace txrep::blink {

namespace {

void AppendEntryKey(std::string& dst, const EntryKey& key) {
  codec::AppendValue(dst, key.value);
  codec::AppendLengthPrefixed(dst, key.row_key);
}

bool GetEntryKey(std::string_view* src, EntryKey* key) {
  if (!codec::GetValue(src, &key->value)) return false;
  std::string_view row_key;
  if (!codec::GetLengthPrefixed(src, &row_key)) return false;
  key->row_key.assign(row_key);
  return true;
}

}  // namespace

std::string EntryKey::DebugString() const {
  return "(" + value.ToString() + ", \"" + row_key + "\")";
}

bool operator==(const EntryKey& a, const EntryKey& b) {
  return a.value == b.value && a.row_key == b.row_key;
}

bool operator<(const EntryKey& a, const EntryKey& b) {
  if (a.value != b.value) return a.value < b.value;
  return a.row_key < b.row_key;
}

std::string BlinkNode::DebugString() const {
  std::string out = is_leaf() ? "leaf" : "internal";
  out += " level=" + std::to_string(level);
  out += " right=" + std::to_string(right_id);
  out += has_high_key ? (" high=" + high_key.DebugString()) : " high=+inf";
  out += " keys=" + std::to_string(KeyCount());
  return out;
}

std::string EncodeBlinkNode(const BlinkNode& node) {
  std::string out;
  codec::AppendVarint64(out, node.level);
  out.push_back(node.has_high_key ? 1 : 0);
  if (node.has_high_key) AppendEntryKey(out, node.high_key);
  codec::AppendVarint64(out, node.right_id);
  if (node.is_leaf()) {
    codec::AppendVarint64(out, node.entries.size());
    for (const EntryKey& e : node.entries) AppendEntryKey(out, e);
  } else {
    codec::AppendVarint64(out, node.separators.size());
    for (const EntryKey& s : node.separators) AppendEntryKey(out, s);
    for (uint64_t child : node.children) codec::AppendVarint64(out, child);
  }
  return out;
}

Result<BlinkNode> DecodeBlinkNode(std::string_view bytes) {
  BlinkNode node;
  uint64_t level = 0;
  if (!codec::GetVarint64(&bytes, &level) || bytes.empty()) {
    return Status::Corruption("blink node: bad header");
  }
  node.level = static_cast<uint32_t>(level);
  node.has_high_key = bytes[0] != 0;
  bytes.remove_prefix(1);
  if (node.has_high_key && !GetEntryKey(&bytes, &node.high_key)) {
    return Status::Corruption("blink node: bad high key");
  }
  if (!codec::GetVarint64(&bytes, &node.right_id)) {
    return Status::Corruption("blink node: bad right pointer");
  }
  uint64_t count = 0;
  if (!codec::GetVarint64(&bytes, &count)) {
    return Status::Corruption("blink node: bad key count");
  }
  if (node.is_leaf()) {
    node.entries.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      EntryKey e;
      if (!GetEntryKey(&bytes, &e)) {
        return Status::Corruption("blink node: bad entry");
      }
      node.entries.push_back(std::move(e));
    }
  } else {
    node.separators.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      EntryKey s;
      if (!GetEntryKey(&bytes, &s)) {
        return Status::Corruption("blink node: bad separator");
      }
      node.separators.push_back(std::move(s));
    }
    node.children.reserve(count + 1);
    for (uint64_t i = 0; i < count + 1; ++i) {
      uint64_t child = 0;
      if (!codec::GetVarint64(&bytes, &child)) {
        return Status::Corruption("blink node: bad child id");
      }
      node.children.push_back(child);
    }
  }
  if (!bytes.empty()) {
    return Status::Corruption("blink node: trailing bytes");
  }
  return node;
}

std::string EncodeBlinkMeta(const BlinkMeta& meta) {
  std::string out;
  codec::AppendVarint64(out, meta.root_id);
  codec::AppendVarint64(out, meta.next_id);
  return out;
}

Result<BlinkMeta> DecodeBlinkMeta(std::string_view bytes) {
  BlinkMeta meta;
  if (!codec::GetVarint64(&bytes, &meta.root_id) ||
      !codec::GetVarint64(&bytes, &meta.next_id) || !bytes.empty()) {
    return Status::Corruption("blink meta: malformed");
  }
  return meta;
}

}  // namespace txrep::blink
