#include "core/serial_applier.h"

#include "common/clock.h"
#include "core/txn_buffer.h"
#include "obs/names.h"

namespace txrep::core {

SerialApplier::SerialApplier(kv::KvStore* store,
                             const qt::QueryTranslator* translator,
                             obs::MetricsRegistry* metrics,
                             trace::Tracer* tracer, trace::SloWatchdog* slo)
    : store_(store), translator_(translator), tracer_(tracer), slo_(slo) {
  if (metrics != nullptr) {
    h_stage_apply_ = metrics->GetHistogram(obs::kStageLatency,
                                           {{"stage", obs::kStageApply}});
    h_stage_e2e_ =
        metrics->GetHistogram(obs::kStageLatency, {{"stage", obs::kStageE2e}});
  }
}

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
  const int64_t now = NowMicros();
  if (h_stage_apply_ != nullptr) h_stage_apply_->Record(now - start);
  if (tracer_ != nullptr && txn.trace.sampled) {
    // Serial replay has no commit evaluation: the hand-off instant is the
    // apply span origin, all of it service.
    tracer_->RecordSpan(txn.trace, txn.lsn, trace::SpanStage::kApply, start,
                        now, 0);
    if (txn.commit_micros != 0) {
      tracer_->RecordSpan(txn.trace, txn.lsn, trace::SpanStage::kE2e,
                          txn.commit_micros, now, 0);
    }
  }
  if (txn.commit_micros != 0) {
    if (h_stage_e2e_ != nullptr) h_stage_e2e_->Record(now - txn.commit_micros);
    if (slo_ != nullptr) slo_->ObserveLag(now - txn.commit_micros);
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
