#include "kv/inmemory_node.h"

#include <algorithm>
#include <functional>

#include "common/clock.h"
#include "obs/names.h"

namespace txrep::kv {

InMemoryKvNode::InMemoryKvNode(KvNodeOptions options,
                               obs::MetricsRegistry* metrics, int node_index)
    : options_(options),
      failure_rate_(options.failure_rate),
      failure_rng_(options.failure_seed) {
  if (metrics == nullptr) return;
  obs::Labels node_label;
  if (node_index >= 0) node_label = {{"node", std::to_string(node_index)}};
  auto op_labels = [&](const char* op) {
    obs::Labels labels = node_label;
    labels.emplace_back("op", op);
    return labels;
  };
  c_gets_ = metrics->GetCounter(obs::kKvOps, op_labels("get"));
  c_puts_ = metrics->GetCounter(obs::kKvOps, op_labels("put"));
  c_deletes_ = metrics->GetCounter(obs::kKvOps, op_labels("delete"));
  c_get_misses_ = metrics->GetCounter(obs::kKvOps, op_labels("get_miss"));
  h_op_latency_ = metrics->GetHistogram(obs::kKvOpLatency, node_label);
  h_queue_wait_ = metrics->GetHistogram(obs::kKvQueueWait, node_label);
  h_batch_size_ = metrics->GetHistogram(obs::kKvBatchSize, node_label);
  g_slots_ = metrics->GetGauge(obs::kKvSlotsInUse, node_label);
}

InMemoryKvNode::Stripe& InMemoryKvNode::StripeFor(const Key& key) {
  return stripes_[std::hash<std::string>{}(key) % kNumStripes];
}

bool InMemoryKvNode::RollFailure() {
  const double failure_rate = failure_rate_.load(std::memory_order_relaxed);
  if (failure_rate <= 0.0) return false;
  bool fail;
  {
    check::MutexLock lock(&failure_mu_);
    fail = failure_rng_.Bernoulli(failure_rate);
  }
  if (fail) {
    check::MutexLock lock(&stats_mu_);
    ++stats_.injected_failures;
  }
  return fail;
}

void InMemoryKvNode::OccupySlot(int64_t micros) {
  int64_t waited = 0;
  if (options_.service_slots > 0) {
    const int64_t arrive = NowMicros();
    {
      check::MutexLock lock(&gate_mu_);
      while (in_service_ >= options_.service_slots) gate_cv_.Wait();
      ++in_service_;
      if (g_slots_ != nullptr) g_slots_->Set(in_service_);
    }
    waited = NowMicros() - arrive;
    SleepForMicros(micros);
    {
      check::MutexLock lock(&gate_mu_);
      --in_service_;
      if (g_slots_ != nullptr) g_slots_->Set(in_service_);
      gate_cv_.NotifyOne();
    }
  } else {
    SleepForMicros(micros);
  }
  if (h_queue_wait_ != nullptr) h_queue_wait_->Record(waited);
}

int64_t InMemoryKvNode::BatchMicros(size_t ops) const {
  return options_.service_time_micros +
         static_cast<int64_t>(ops - 1) * (options_.service_time_micros / 8);
}

Status InMemoryKvNode::SimulateService() {
  const int64_t start = NowMicros();
  if (RollFailure()) return Status::Unavailable("injected node failure");
  OccupySlot(options_.service_time_micros);
  if (h_op_latency_ != nullptr) h_op_latency_->Record(NowMicros() - start);
  return Status::OK();
}

Status InMemoryKvNode::Put(const Key& key, const Value& value) {
  TXREP_RETURN_IF_ERROR(SimulateService());
  Stripe& stripe = StripeFor(key);
  {
    check::WriterMutexLock lock(&stripe.mu);
    stripe.map[key] = value;
  }
  if (c_puts_ != nullptr) c_puts_->Increment();
  check::MutexLock lock(&stats_mu_);
  ++stats_.puts;
  return Status::OK();
}

Result<Value> InMemoryKvNode::Get(const Key& key) {
  TXREP_RETURN_IF_ERROR(SimulateService());
  Stripe& stripe = StripeFor(key);
  std::optional<Value> found;
  {
    check::ReaderMutexLock lock(&stripe.mu);
    auto it = stripe.map.find(key);
    if (it != stripe.map.end()) found = it->second;
  }
  if (c_gets_ != nullptr) c_gets_->Increment();
  check::MutexLock lock(&stats_mu_);
  ++stats_.gets;
  if (!found.has_value()) {
    ++stats_.get_misses;
    if (c_get_misses_ != nullptr) c_get_misses_->Increment();
    return Status::NotFound("key \"" + key + "\" not present");
  }
  return *std::move(found);
}

Status InMemoryKvNode::Delete(const Key& key) {
  TXREP_RETURN_IF_ERROR(SimulateService());
  Stripe& stripe = StripeFor(key);
  {
    check::WriterMutexLock lock(&stripe.mu);
    stripe.map.erase(key);
  }
  if (c_deletes_ != nullptr) c_deletes_->Increment();
  check::MutexLock lock(&stats_mu_);
  ++stats_.deletes;
  return Status::OK();
}

Status InMemoryKvNode::MultiWrite(std::span<const KvWrite> batch,
                                  size_t* applied) {
  if (applied != nullptr) *applied = 0;
  if (batch.empty()) return Status::OK();
  const int64_t start = NowMicros();
  OccupySlot(BatchMicros(batch.size()));
  Status first_error = Status::OK();
  int64_t puts = 0;
  int64_t deletes = 0;
  for (const KvWrite& w : batch) {
    // Per-entry roll in batch order: a batched replay consumes the same
    // failure-RNG stream as op-at-a-time replay, so equivalence tests can
    // compare the two under injected failures.
    if (RollFailure()) {
      if (first_error.ok()) {
        first_error = Status::Unavailable("injected node failure");
      }
      continue;
    }
    Stripe& stripe = StripeFor(w.key);
    {
      check::WriterMutexLock lock(&stripe.mu);
      if (w.tombstone) {
        stripe.map.erase(w.key);
      } else {
        stripe.map[w.key] = w.value;
      }
    }
    if (w.tombstone) {
      ++deletes;
      if (c_deletes_ != nullptr) c_deletes_->Increment();
    } else {
      ++puts;
      if (c_puts_ != nullptr) c_puts_->Increment();
    }
    if (applied != nullptr) ++*applied;
  }
  if (h_op_latency_ != nullptr) h_op_latency_->Record(NowMicros() - start);
  if (h_batch_size_ != nullptr) {
    h_batch_size_->Record(static_cast<int64_t>(batch.size()));
  }
  {
    check::MutexLock lock(&stats_mu_);
    stats_.puts += puts;
    stats_.deletes += deletes;
    ++stats_.batches;
  }
  return first_error;
}

std::vector<Result<Value>> InMemoryKvNode::MultiGet(
    std::span<const Key> keys) {
  std::vector<Result<Value>> results;
  results.reserve(keys.size());
  if (keys.empty()) return results;
  const int64_t start = NowMicros();
  OccupySlot(BatchMicros(keys.size()));
  int64_t gets = 0;
  int64_t misses = 0;
  for (const Key& key : keys) {
    if (RollFailure()) {
      results.push_back(Status::Unavailable("injected node failure"));
      continue;
    }
    ++gets;
    if (c_gets_ != nullptr) c_gets_->Increment();
    Stripe& stripe = StripeFor(key);
    std::optional<Value> found;
    {
      check::ReaderMutexLock lock(&stripe.mu);
      auto it = stripe.map.find(key);
      if (it != stripe.map.end()) found = it->second;
    }
    if (found.has_value()) {
      results.push_back(*std::move(found));
    } else {
      ++misses;
      if (c_get_misses_ != nullptr) c_get_misses_->Increment();
      results.push_back(Status::NotFound("key \"" + key + "\" not present"));
    }
  }
  if (h_op_latency_ != nullptr) h_op_latency_->Record(NowMicros() - start);
  if (h_batch_size_ != nullptr) {
    h_batch_size_->Record(static_cast<int64_t>(keys.size()));
  }
  {
    check::MutexLock lock(&stats_mu_);
    stats_.gets += gets;
    stats_.get_misses += misses;
    ++stats_.batches;
  }
  return results;
}

bool InMemoryKvNode::Contains(const Key& key) {
  Stripe& stripe = StripeFor(key);
  check::ReaderMutexLock lock(&stripe.mu);
  return stripe.map.contains(key);
}

size_t InMemoryKvNode::Size() {
  size_t total = 0;
  for (Stripe& stripe : stripes_) {
    check::ReaderMutexLock lock(&stripe.mu);
    total += stripe.map.size();
  }
  return total;
}

StoreDump InMemoryKvNode::Dump() {
  StoreDump dump;
  for (Stripe& stripe : stripes_) {
    check::ReaderMutexLock lock(&stripe.mu);
    for (const auto& [k, v] : stripe.map) dump.emplace_back(k, v);
  }
  std::sort(dump.begin(), dump.end());
  return dump;
}

Status InMemoryKvNode::Clear() {
  // Stripes are cleared one at a time — callers requiring a consistent
  // "empty at one instant" view (checkpoint install) already hold the
  // replica quiescent.
  for (Stripe& stripe : stripes_) {
    check::WriterMutexLock lock(&stripe.mu);
    stripe.map.clear();
  }
  return Status::OK();
}

KvStoreStats InMemoryKvNode::stats() const {
  check::MutexLock lock(&stats_mu_);
  return stats_;
}

}  // namespace txrep::kv
