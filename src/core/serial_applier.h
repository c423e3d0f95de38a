#ifndef TXREP_CORE_SERIAL_APPLIER_H_
#define TXREP_CORE_SERIAL_APPLIER_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"
#include "kv/kv_store.h"
#include "obs/metrics.h"
#include "qt/query_translator.h"
#include "rel/txlog.h"
#include "trace/hop_recorder.h"

namespace txrep::core {

/// The baseline of the paper's evaluation (§6.3, "most of the existing
/// replication approaches use single threaded serial execution of updates in
/// the replica"): transactions replay strictly one after another, each
/// applied directly to the key-value store. Trivially respects the
/// execution-defined order; exploits no concurrency.
class SerialApplier {
 public:
  /// `store` and `translator` must outlive the applier. `metrics`, `tracer`
  /// and `slo` (optional, same lifetime rule) receive the apply and e2e hops
  /// of every applied transaction (see trace::HopRecorder).
  /// Each transaction executes into a private TxnBuffer (reads go through to
  /// the store) and its coalesced write set ships as one MultiWrite —
  /// equivalent to direct application because a buffered transaction reads
  /// its own writes and each key appears once in the write set.
  SerialApplier(kv::KvStore* store, const qt::QueryTranslator* translator,
                obs::MetricsRegistry* metrics = nullptr,
                trace::Tracer* tracer = nullptr,
                trace::SloWatchdog* slo = nullptr);

  SerialApplier(const SerialApplier&) = delete;
  SerialApplier& operator=(const SerialApplier&) = delete;

  /// Applies one logged transaction; returns on first error.
  Status Apply(const rel::LogTransaction& txn);

  /// Applies a batch in order.
  Status ApplyBatch(const std::vector<rel::LogTransaction>& batch);

  int64_t applied() const { return applied_; }

  /// LSN of the last applied transaction (0 before the first). Serial
  /// replay is in-order, so this is always the applied-prefix end — the
  /// serial path's snapshot-epoch source. Atomic: checkpointing reads it
  /// from another thread while the applier owns the apply thread.
  uint64_t last_applied_lsn() const {
    return last_applied_lsn_.load(std::memory_order_acquire);
  }

 private:
  kv::KvStore* store_;                     // Not owned.
  const qt::QueryTranslator* translator_;  // Not owned.
  const trace::HopRecorder hops_;
  int64_t applied_ = 0;
  std::atomic<uint64_t> last_applied_lsn_{0};
};

}  // namespace txrep::core

#endif  // TXREP_CORE_SERIAL_APPLIER_H_
