#ifndef TXREP_KV_INMEMORY_NODE_H_
#define TXREP_KV_INMEMORY_NODE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "check/mutex.h"
#include "common/histogram.h"
#include "common/random.h"
#include "kv/kv_store.h"
#include "obs/metrics.h"

namespace txrep::kv {

/// Tuning and simulation knobs for a single key-value node.
struct KvNodeOptions {
  /// Simulated per-operation service time in microseconds. Models the network
  /// round-trip + server work that dominates KV op cost in the paper's
  /// Voldemort deployment. 0 disables simulation (pure in-memory speed).
  int64_t service_time_micros = 0;

  /// How many operations the node can service concurrently (its "server
  /// threads"). Ops beyond this queue at the node. 0 means unlimited.
  /// Small values make per-node capacity the bottleneck, which is what gives
  /// the paper's Fig. 17 cluster-size effect.
  int service_slots = 0;

  /// Probability in [0,1] that an operation fails with Unavailable before
  /// touching state. For failure-injection tests only.
  double failure_rate = 0.0;

  /// Seed for the failure-injection RNG.
  uint64_t failure_seed = 42;
};

/// Single in-memory key-value node.
///
/// - Striped hash maps with shared_mutex stripes give per-key atomic
///   read-write consistency (the paper's §5 assumption).
/// - An optional service-slot gate + sleep simulates node capacity and
///   round-trip latency so that the concurrency experiments behave like the
///   paper's networked cluster even on one host.
class InMemoryKvNode : public KvStore {
 public:
  /// `metrics` (optional, must outlive the node) receives per-op counters,
  /// op-latency histograms and the slot-occupancy gauge, labeled
  /// {node="`node_index`"} when `node_index` >= 0.
  explicit InMemoryKvNode(KvNodeOptions options = {},
                          obs::MetricsRegistry* metrics = nullptr,
                          int node_index = -1);

  InMemoryKvNode(const InMemoryKvNode&) = delete;
  InMemoryKvNode& operator=(const InMemoryKvNode&) = delete;

  Status Put(const Key& key, const Value& value) override;
  Result<Value> Get(const Key& key) override;
  Status Delete(const Key& key) override;

  /// Batch write: one slot occupancy of `service_time_micros +
  /// (k-1) * service_time_micros / 8` (the round trip dominates; the per-op
  /// server work is small). Attempts every entry — an injected
  /// transient failure skips just that entry (its key keeps its prior value)
  /// and the first error is returned; `applied` counts entries that took
  /// effect. The failure dice are rolled once per entry in batch order, so a
  /// batched replay consumes the same RNG stream as op-at-a-time replay.
  Status MultiWrite(std::span<const KvWrite> batch,
                    size_t* applied = nullptr) override;

  /// Batch read under the same amortized service model. Per-key positional
  /// results; an injected failure or miss fails only that entry.
  std::vector<Result<Value>> MultiGet(std::span<const Key> keys) override;

  bool Contains(const Key& key) override;
  size_t Size() override;
  StoreDump Dump() override;
  Status Clear() override;

  /// Cumulative operation counters (snapshot).
  KvStoreStats stats() const;

  const KvNodeOptions& options() const { return options_; }

  /// Adjusts the injected-failure probability at runtime so tests can fence
  /// the failure window: populate cleanly, inject during the phase under
  /// test, audit cleanly. Initialized from options().failure_rate.
  void set_failure_rate(double rate) {
    failure_rate_.store(rate, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kNumStripes = 16;

  struct Stripe {
    /// Unnamed (out of the lock-order graph): stripes are leaf locks, never
    /// held while acquiring another lock, and two stripes are never nested.
    mutable check::SharedMutex mu;
    std::unordered_map<Key, Value> map TXREP_GUARDED_BY(mu);
  };

  /// Occupies a service slot for the simulated service time; returns an
  /// injected failure if the failure dice say so.
  Status SimulateService();

  /// One Bernoulli roll of the failure dice (batch entries roll per entry, in
  /// batch order, so batched and op-at-a-time replay share the RNG stream).
  bool RollFailure();

  /// Occupies one service slot for `micros` of simulated time and records
  /// how long the op queued at the gate waiting for a free slot.
  void OccupySlot(int64_t micros);

  /// Service time of a k-op batch: one round trip plus a marginal eighth of
  /// one for each op after the first.
  int64_t BatchMicros(size_t ops) const;

  Stripe& StripeFor(const Key& key);

  const KvNodeOptions options_;
  // analyze: lock-free(per-stripe locking; each Stripe owns its own mutex)
  std::array<Stripe, kNumStripes> stripes_;

  // Service gate (counting semaphore with runtime capacity).
  check::Mutex gate_mu_{"kv.gate"};
  check::CondVar gate_cv_{&gate_mu_};
  int in_service_ TXREP_GUARDED_BY(gate_mu_) = 0;

  // Failure injection. The rate is an atomic (not guarded) so the zero-rate
  // fast path skips the lock entirely.
  std::atomic<double> failure_rate_;
  check::Mutex failure_mu_{"kv.failure"};
  Random failure_rng_ TXREP_GUARDED_BY(failure_mu_);

  // Counters.
  mutable check::Mutex stats_mu_{"kv.stats"};
  KvStoreStats stats_ TXREP_GUARDED_BY(stats_mu_);

  // Registry instruments (null when the node runs unobserved).
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_gets_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_puts_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_deletes_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_get_misses_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_op_latency_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_queue_wait_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_batch_size_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Gauge* g_slots_ = nullptr;
};

}  // namespace txrep::kv

#endif  // TXREP_KV_INMEMORY_NODE_H_
