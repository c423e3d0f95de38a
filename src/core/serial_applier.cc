#include "core/serial_applier.h"

#include "common/clock.h"
#include "core/txn_buffer.h"
#include "obs/names.h"

namespace txrep::core {

SerialApplier::SerialApplier(kv::KvStore* store,
                             const qt::QueryTranslator* translator,
                             obs::MetricsRegistry* metrics,
                             trace::Tracer* tracer, trace::SloWatchdog* slo)
    : store_(store),
      translator_(translator),
      hops_(metrics, tracer, slo) {}

Status SerialApplier::Apply(const rel::LogTransaction& txn) {
  const int64_t start = NowMicros();
  // Execute into a private buffer (reads go through to the store), then ship
  // the coalesced write set as one MultiWrite. Serial replay makes this
  // trivially equivalent to direct application: nothing else writes the
  // store between execution and publish.
  TxnBuffer buffer(store_);
  TXREP_RETURN_IF_ERROR(translator_->ApplyTransaction(&buffer, txn));
  TXREP_RETURN_IF_ERROR(buffer.ApplyTo(store_));
  ++applied_;
  if (txn.lsn != 0) {
    last_applied_lsn_.store(txn.lsn, std::memory_order_release);
  }
  // Serial replay has no commit evaluation: the hand-off instant is the
  // apply hop origin, all of it service.
  const int64_t now = NowMicros();
  hops_.RecordHop(obs::Stage::kApply, txn.trace, txn.lsn, start, now);
  if (txn.commit_micros != 0) {
    hops_.RecordHop(obs::Stage::kE2e, txn.trace, txn.lsn, txn.commit_micros,
                    now);
  }
  return Status::OK();
}

Status SerialApplier::ApplyBatch(const std::vector<rel::LogTransaction>& batch) {
  for (const rel::LogTransaction& txn : batch) {
    TXREP_RETURN_IF_ERROR(Apply(txn));
  }
  return Status::OK();
}

}  // namespace txrep::core
