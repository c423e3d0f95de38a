#ifndef TXREP_TRACE_HOP_RECORDER_H_
#define TXREP_TRACE_HOP_RECORDER_H_

#include <array>
#include <cstdint>

#include "common/histogram.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "trace/context.h"

namespace txrep::trace {

class Tracer;
class SloWatchdog;

/// The one way a pipeline component records a hop (DESIGN.md §7): every hop
/// feeds its txrep_stage_latency_us histogram, a sampled transaction's hop
/// also lands in the flight recorder, and the e2e hop feeds the SLO
/// watchdog. A component builds one from the (metrics, tracer, slo) it is
/// given; each may be null. Immutable once built, so RecordHop() is safe
/// from any thread.
class HopRecorder {
 public:
  HopRecorder(obs::MetricsRegistry* metrics, Tracer* tracer,
              SloWatchdog* slo = nullptr);

  /// Records hop `stage` of the transaction at `lsn` over [start, end].
  /// `queue_micros` is the waiting share, clamped into [0, end - start].
  void RecordHop(obs::Stage stage, const TraceContext& ctx, uint64_t lsn,
                 int64_t start_micros, int64_t end_micros,
                 int64_t queue_micros = 0) const;

 private:
  std::array<Histogram*, obs::kNumStages> histograms_{};
  Tracer* tracer_;    // Not owned; may be null.
  SloWatchdog* slo_;  // Not owned; may be null.
};

}  // namespace txrep::trace

#endif  // TXREP_TRACE_HOP_RECORDER_H_
