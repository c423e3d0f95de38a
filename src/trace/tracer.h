#ifndef TXREP_TRACE_TRACER_H_
#define TXREP_TRACE_TRACER_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "trace/context.h"
#include "trace/recorder.h"

namespace txrep::trace {

struct TracerOptions {
  /// Sampling period: 0 disables tracing entirely, 1 traces every
  /// transaction, N traces every Nth (lsn % N == 0 — deterministic in the
  /// log position, so replays and the schedule explorer sample identically).
  uint64_t sample_every = 0;

  /// Flight-recorder geometry (bounded memory; see recorder.h).
  FlightRecorderOptions recorder;
};

/// Front door of the tracing subsystem: mints TraceContexts at DB commit,
/// funnels sampled hops into the flight recorder and mirrors volume counters
/// into the metrics registry. One Tracer serves a whole deployment; every
/// method is thread-safe and lock-free. Components record hops through a
/// HopRecorder (trace/hop_recorder.h), which calls Record() for sampled
/// transactions only.
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {},
                  obs::MetricsRegistry* metrics = nullptr);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// True when sampling is configured (sample_every > 0).
  bool enabled() const { return options_.sample_every > 0; }
  uint64_t sample_every() const { return options_.sample_every; }

  /// Mints the context for the transaction committing at `lsn`.
  /// Deterministic: the same lsn always yields the same decision.
  TraceContext Mint(uint64_t lsn);

  /// Records one span into the flight recorder and counts it.
  void Record(const SpanEvent& event);

  /// Snapshot of the flight recorder (see FlightRecorder::Dump).
  std::vector<SpanEvent> Dump() const { return recorder_.Dump(); }

  const FlightRecorder& recorder() const { return recorder_; }
  const TracerOptions& options() const { return options_; }

 private:
  const TracerOptions options_;
  FlightRecorder recorder_;

  obs::Counter* c_sampled_ = nullptr;
  obs::Counter* c_spans_ = nullptr;
  obs::Counter* c_spans_dropped_ = nullptr;
};

}  // namespace txrep::trace

#endif  // TXREP_TRACE_TRACER_H_
