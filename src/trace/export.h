#ifndef TXREP_TRACE_EXPORT_H_
#define TXREP_TRACE_EXPORT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/recorder.h"

namespace txrep::trace {

/// Everything the flight recorder captured about ONE transaction, folded by
/// stage, with critical-path attribution: which hop dominated this
/// transaction's end-to-end lag.
struct TraceSummary {
  uint64_t trace_id = 0;
  uint64_t lsn = 0;
  std::array<bool, obs::kNumStages> has{};
  std::array<SpanEvent, obs::kNumStages> spans{};

  /// End-to-end lag: the e2e span when recorded, else the covered sum.
  int64_t e2e_micros = 0;
  /// Sum of the recorded per-hop durations (excluding the e2e span itself).
  int64_t covered_micros = 0;
  /// The longest recorded hop (excluding e2e) — the critical path's head.
  obs::Stage dominant = obs::Stage::kPublish;

  bool complete() const {
    for (int i = 0; i < obs::kNumStages; ++i) {
      if (i != static_cast<int>(obs::Stage::kCommitEval) && !has[i]) {
        return false;
      }
    }
    return true;
  }

  /// Fraction of e2e explained by the recorded hops (1.0 = fully attributed).
  double coverage() const {
    return e2e_micros > 0
               ? static_cast<double>(covered_micros) / e2e_micros
               : 1.0;
  }
};

/// Folds a span dump into per-transaction summaries, ordered by e2e start
/// time. Duplicate (trace, stage) events keep the longest instance.
std::vector<TraceSummary> BuildTraceSummaries(
    const std::vector<SpanEvent>& events);

/// Chrome trace-event JSON (the object form: {"traceEvents":[...]}), loadable
/// in chrome://tracing and Perfetto. Each stage renders as one track ("X"
/// complete events); queue/service split and LSN ride in args.
std::string ToChromeTraceJson(const std::vector<SpanEvent>& events);

/// Human-readable per-transaction timeline (at most `max_traces`
/// transactions, slowest e2e first) for terminal / log consumption.
std::string ToTextTimeline(const std::vector<SpanEvent>& events,
                           size_t max_traces = 32);

/// Aggregate critical-path report over many summaries: how often each hop
/// dominated, plus the slowest transactions with their dominant hop.
std::string CriticalPathReport(const std::vector<TraceSummary>& summaries,
                               size_t slowest = 8);

}  // namespace txrep::trace

#endif  // TXREP_TRACE_EXPORT_H_
