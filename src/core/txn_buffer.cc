#include "core/txn_buffer.h"

#include <algorithm>

namespace txrep::core {

TxnBuffer::TxnBuffer(kv::KvStore* base) : base_(base) {}

Status TxnBuffer::Put(const kv::Key& key, const kv::Value& value) {
  writes_[key] = WriteEntry{false, value};
  write_set_.insert(key);
  return Status::OK();
}

Status TxnBuffer::Delete(const kv::Key& key) {
  writes_[key] = WriteEntry{true, {}};
  write_set_.insert(key);
  return Status::OK();
}

Result<kv::Value> TxnBuffer::Get(const kv::Key& key) {
  // Own writes win.
  auto w = writes_.find(key);
  if (w != writes_.end()) {
    if (w->second.tombstone) {
      return Status::NotFound("key \"" + key + "\" deleted in transaction");
    }
    return w->second.value;
  }
  // Read-through cache.
  auto c = read_cache_.find(key);
  if (c != read_cache_.end()) {
    if (!c->second.has_value()) {
      return Status::NotFound("key \"" + key + "\" not present (cached)");
    }
    return *c->second;
  }
  // Base store; the access is what defines the read set.
  read_set_.insert(key);
  Result<kv::Value> result = base_->Get(key);
  if (result.ok()) {
    read_cache_[key] = result.value();
    return result;
  }
  if (result.status().IsNotFound()) {
    read_cache_[key] = std::nullopt;
  }
  return result;
}

bool TxnBuffer::Contains(const kv::Key& key) {
  Result<kv::Value> r = Get(key);
  return r.ok();
}

size_t TxnBuffer::Size() {
  // Merged view size is not cheaply available; report the base size adjusted
  // by buffered inserts/deletes best-effort (used only in diagnostics).
  size_t size = base_->Size();
  for (const auto& [key, entry] : writes_) {
    const bool existed = base_->Contains(key);
    if (entry.tombstone && existed && size > 0) --size;
    if (!entry.tombstone && !existed) ++size;
  }
  return size;
}

kv::StoreDump TxnBuffer::Dump() {
  kv::StoreDump dump = base_->Dump();
  kv::StoreDump merged;
  merged.reserve(dump.size() + writes_.size());
  auto w = writes_.begin();
  for (auto& [key, value] : dump) {
    while (w != writes_.end() && w->first < key) {
      if (!w->second.tombstone) merged.emplace_back(w->first, w->second.value);
      ++w;
    }
    if (w != writes_.end() && w->first == key) {
      if (!w->second.tombstone) merged.emplace_back(w->first, w->second.value);
      ++w;
      continue;
    }
    merged.emplace_back(std::move(key), std::move(value));
  }
  for (; w != writes_.end(); ++w) {
    if (!w->second.tombstone) merged.emplace_back(w->first, w->second.value);
  }
  return merged;
}

kv::KvWriteBatch TxnBuffer::WriteBatch() const {
  kv::KvWriteBatch batch;
  batch.reserve(writes_.size());
  for (const auto& [key, entry] : writes_) {
    if (entry.tombstone) {
      batch.push_back(kv::KvWrite::Delete(key));
    } else {
      batch.push_back(kv::KvWrite::Put(key, entry.value));
    }
  }
  return batch;
}

Status TxnBuffer::ApplyTo(kv::KvStore* target) const {
  return target->MultiWrite(WriteBatch());
}

}  // namespace txrep::core
