#include "trace/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>

namespace txrep::trace {

namespace {

void AppendFormat(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<size_t>(n, sizeof(buf) - 1));
}

}  // namespace

std::vector<TraceSummary> BuildTraceSummaries(
    const std::vector<SpanEvent>& events) {
  std::map<uint64_t, TraceSummary> by_trace;
  for (const SpanEvent& event : events) {
    TraceSummary& summary = by_trace[event.trace_id];
    summary.trace_id = event.trace_id;
    summary.lsn = event.lsn;
    const size_t idx = static_cast<size_t>(event.stage);
    if (!summary.has[idx] ||
        event.duration_micros() > summary.spans[idx].duration_micros()) {
      summary.has[idx] = true;
      summary.spans[idx] = event;
    }
  }

  std::vector<TraceSummary> out;
  out.reserve(by_trace.size());
  for (auto& [id, summary] : by_trace) {
    int64_t covered = 0;
    int64_t longest = -1;
    for (int i = 0; i < obs::kNumStages; ++i) {
      if (!summary.has[i] || i == static_cast<int>(obs::Stage::kE2e)) continue;
      const int64_t duration = summary.spans[i].duration_micros();
      covered += duration;
      if (duration > longest) {
        longest = duration;
        summary.dominant = static_cast<obs::Stage>(i);
      }
    }
    summary.covered_micros = covered;
    const size_t e2e = static_cast<size_t>(obs::Stage::kE2e);
    summary.e2e_micros =
        summary.has[e2e] ? summary.spans[e2e].duration_micros() : covered;
    out.push_back(summary);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceSummary& a, const TraceSummary& b) {
              const auto start = [](const TraceSummary& s) {
                const size_t e2e = static_cast<size_t>(obs::Stage::kE2e);
                return s.has[e2e] ? s.spans[e2e].start_micros : int64_t{0};
              };
              if (start(a) != start(b)) return start(a) < start(b);
              return a.trace_id < b.trace_id;
            });
  return out;
}

std::string ToChromeTraceJson(const std::vector<SpanEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (int i = 0; i < obs::kNumStages; ++i) {
    if (!first) out += ',';
    first = false;
    AppendFormat(out,
                 "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                 "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                 i, obs::StageName(static_cast<obs::Stage>(i)));
  }
  for (const SpanEvent& event : events) {
    if (!first) out += ',';
    first = false;
    AppendFormat(
        out,
        "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"txrep\","
        "\"name\":\"%s\",\"ts\":%" PRId64 ",\"dur\":%" PRId64
        ",\"args\":{\"lsn\":%" PRIu64 ",\"trace_id\":%" PRIu64
        ",\"queue_us\":%" PRId64 ",\"service_us\":%" PRId64 "}}",
        static_cast<int>(event.stage), obs::StageName(event.stage),
        event.start_micros, event.duration_micros(), event.lsn, event.trace_id,
        event.queue_micros, event.service_micros());
  }
  out += "]}";
  return out;
}

std::string ToTextTimeline(const std::vector<SpanEvent>& events,
                           size_t max_traces) {
  std::vector<TraceSummary> summaries = BuildTraceSummaries(events);
  std::sort(summaries.begin(), summaries.end(),
            [](const TraceSummary& a, const TraceSummary& b) {
              return a.e2e_micros > b.e2e_micros;
            });
  if (summaries.size() > max_traces) summaries.resize(max_traces);

  std::string out;
  AppendFormat(out, "flight recorder: %zu span(s), %zu transaction(s)",
               events.size(), summaries.size());
  out += '\n';
  for (const TraceSummary& summary : summaries) {
    AppendFormat(out,
                 "trace %" PRIu64 " (lsn %" PRIu64 ") e2e=%" PRId64
                 "us dominant=%s coverage=%.1f%%\n",
                 summary.trace_id, summary.lsn, summary.e2e_micros,
                 obs::StageName(summary.dominant),
                 100.0 * summary.coverage());
    int64_t origin = 0;
    const size_t e2e = static_cast<size_t>(obs::Stage::kE2e);
    if (summary.has[e2e]) {
      origin = summary.spans[e2e].start_micros;
    } else {
      for (int i = 0; i < obs::kNumStages; ++i) {
        if (summary.has[i]) {
          origin = summary.spans[i].start_micros;
          break;
        }
      }
    }
    for (int i = 0; i < obs::kNumStages; ++i) {
      if (!summary.has[i]) continue;
      const SpanEvent& span = summary.spans[i];
      AppendFormat(out,
                   "  %-12s [%8" PRId64 " +%8" PRId64 "us] queue=%" PRId64
                   "us service=%" PRId64 "us\n",
                   obs::StageName(span.stage), span.start_micros - origin,
                   span.duration_micros(), span.queue_micros,
                   span.service_micros());
    }
  }
  return out;
}

std::string CriticalPathReport(const std::vector<TraceSummary>& summaries,
                               size_t slowest) {
  std::array<int64_t, obs::kNumStages> dominated{};
  for (const TraceSummary& summary : summaries) {
    dominated[static_cast<size_t>(summary.dominant)]++;
  }
  std::string out;
  AppendFormat(out, "critical path over %zu traced transaction(s):\n",
               summaries.size());
  for (int i = 0; i < obs::kNumStages; ++i) {
    if (i == static_cast<int>(obs::Stage::kE2e) || dominated[i] == 0) continue;
    AppendFormat(out, "  %-12s dominated %" PRId64 " (%.1f%%)\n",
                 obs::StageName(static_cast<obs::Stage>(i)), dominated[i],
                 summaries.empty()
                     ? 0.0
                     : 100.0 * dominated[i] / summaries.size());
  }
  std::vector<TraceSummary> sorted = summaries;
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceSummary& a, const TraceSummary& b) {
              return a.e2e_micros > b.e2e_micros;
            });
  if (sorted.size() > slowest) sorted.resize(slowest);
  if (!sorted.empty()) out += "slowest transactions:\n";
  for (const TraceSummary& summary : sorted) {
    AppendFormat(out,
                 "  lsn %" PRIu64 ": e2e=%" PRId64 "us dominant=%s (%" PRId64
                 "us, queue=%" PRId64 "us)\n",
                 summary.lsn, summary.e2e_micros,
                 obs::StageName(summary.dominant),
                 summary.spans[static_cast<size_t>(summary.dominant)]
                     .duration_micros(),
                 summary.spans[static_cast<size_t>(summary.dominant)]
                     .queue_micros);
  }
  return out;
}

}  // namespace txrep::trace
