#include "trace/tracer.h"

#include "obs/names.h"

namespace txrep::trace {

Tracer::Tracer(TracerOptions options, obs::MetricsRegistry* metrics)
    : options_(options), recorder_(options.recorder) {
  if (metrics != nullptr) {
    c_sampled_ = metrics->GetCounter(obs::kTraceSampled);
    c_spans_ = metrics->GetCounter(obs::kTraceSpans);
    c_spans_dropped_ = metrics->GetCounter(obs::kTraceSpansDropped);
  }
}

TraceContext Tracer::Mint(uint64_t lsn) {
  TraceContext ctx;
  if (!enabled() || lsn == 0) return ctx;
  ctx.trace_id = lsn;
  ctx.sampled = (lsn % options_.sample_every) == 0;
  if (ctx.sampled && c_sampled_ != nullptr) c_sampled_->Increment();
  return ctx;
}

void Tracer::Record(const SpanEvent& event) {
  const bool kept = recorder_.Record(event);
  if (c_spans_ != nullptr) c_spans_->Increment();
  if (!kept && c_spans_dropped_ != nullptr) c_spans_dropped_->Increment();
}

}  // namespace txrep::trace
