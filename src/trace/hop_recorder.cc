#include "trace/hop_recorder.h"

#include <algorithm>

#include "trace/slo.h"
#include "trace/tracer.h"

namespace txrep::trace {

HopRecorder::HopRecorder(obs::MetricsRegistry* metrics, Tracer* tracer,
                         SloWatchdog* slo)
    : tracer_(tracer), slo_(slo) {
  if (metrics == nullptr) return;
  for (int i = 0; i < obs::kNumStages; ++i) {
    histograms_[i] = metrics->GetHistogram(
        obs::kStageLatency,
        {{"stage", obs::StageName(static_cast<obs::Stage>(i))}});
  }
}

void HopRecorder::RecordHop(obs::Stage stage, const TraceContext& ctx,
                            uint64_t lsn, int64_t start_micros,
                            int64_t end_micros, int64_t queue_micros) const {
  end_micros = std::max(end_micros, start_micros);
  const int64_t duration = end_micros - start_micros;
  Histogram* histogram = histograms_[static_cast<size_t>(stage)];
  if (histogram != nullptr) histogram->Record(duration);
  if (stage == obs::Stage::kE2e && slo_ != nullptr) slo_->ObserveLag(duration);
  if (tracer_ == nullptr || !ctx.sampled) return;
  SpanEvent event;
  event.trace_id = ctx.trace_id;
  event.lsn = lsn;
  event.stage = stage;
  event.start_micros = start_micros;
  event.end_micros = end_micros;
  event.queue_micros = std::clamp<int64_t>(queue_micros, 0, duration);
  tracer_->Record(event);
}

}  // namespace txrep::trace
