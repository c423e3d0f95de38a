// Exporter tests: Chrome trace-event JSON structural validity, summary
// folding (coverage, completeness, dominant-hop attribution), the text
// timeline and the critical-path report.

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/names.h"
#include "trace/export.h"

namespace txrep::trace {
namespace {

SpanEvent MakeSpan(uint64_t trace_id, obs::Stage stage, int64_t start,
                   int64_t end, int64_t queue = 0) {
  SpanEvent event;
  event.trace_id = trace_id;
  event.lsn = trace_id;
  event.stage = stage;
  event.start_micros = start;
  event.end_micros = end;
  event.queue_micros = queue;
  return event;
}

// One fully-traced transaction: contiguous hops covering [t0, t0+100], with
// the broker hop dominating (60 of 100 µs).
std::vector<SpanEvent> FullTrace(uint64_t id, int64_t t0) {
  return {
      MakeSpan(id, obs::Stage::kPublish, t0, t0 + 10),
      MakeSpan(id, obs::Stage::kBroker, t0 + 10, t0 + 70, /*queue=*/50),
      MakeSpan(id, obs::Stage::kRecv, t0 + 70, t0 + 80),
      MakeSpan(id, obs::Stage::kCommitEval, t0 + 80, t0 + 90),
      MakeSpan(id, obs::Stage::kApply, t0 + 90, t0 + 100),
      MakeSpan(id, obs::Stage::kE2e, t0, t0 + 100),
  };
}

// A lightweight structural check: balanced braces/brackets outside strings,
// no trailing commas before closers. Catches the classic hand-rolled-JSON
// bugs without needing a JSON library in the test image.
void ExpectStructurallyValidJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  char prev_significant = '\0';
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        prev_significant = '"';
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        prev_significant = c;
        break;
      case '}':
      case ']':
        ASSERT_NE(prev_significant, ',') << "trailing comma before " << c;
        --depth;
        ASSERT_GE(depth, 0) << "unbalanced closer";
        prev_significant = c;
        break;
      default:
        if (c != ' ' && c != '\n' && c != '\t') prev_significant = c;
        break;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_EQ(depth, 0) << "unbalanced braces/brackets";
}

TEST(TraceExportTest, ChromeTraceJsonIsStructurallyValid) {
  std::vector<SpanEvent> events = FullTrace(10, 1000);
  const std::vector<SpanEvent> second = FullTrace(20, 2000);
  events.insert(events.end(), second.begin(), second.end());

  const std::string json = ToChromeTraceJson(events);
  ExpectStructurallyValidJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Stage display names are the obs/names.h label spellings.
  EXPECT_NE(json.find(obs::StageName(obs::Stage::kBroker)), std::string::npos);
  EXPECT_NE(json.find("\"lsn\""), std::string::npos);
  // Both transactions exported.
  EXPECT_NE(json.find("10"), std::string::npos);
  EXPECT_NE(json.find("20"), std::string::npos);
}

TEST(TraceExportTest, EmptyDumpStillValidJson) {
  const std::string json = ToChromeTraceJson({});
  ExpectStructurallyValidJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceExportTest, SummariesFoldCoverageAndDominantHop) {
  const std::vector<TraceSummary> summaries =
      BuildTraceSummaries(FullTrace(7, 500));
  ASSERT_EQ(summaries.size(), 1u);
  const TraceSummary& s = summaries[0];
  EXPECT_EQ(s.trace_id, 7u);
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.e2e_micros, 100);
  EXPECT_EQ(s.covered_micros, 100);  // Hops are contiguous -> full coverage.
  EXPECT_DOUBLE_EQ(s.coverage(), 1.0);
  EXPECT_EQ(s.dominant, obs::Stage::kBroker);
}

TEST(TraceExportTest, IncompleteTraceReportsPartialCoverage) {
  // Only publish + e2e recorded: 10 of 100 µs attributed.
  const std::vector<SpanEvent> events = {
      MakeSpan(3, obs::Stage::kPublish, 0, 10),
      MakeSpan(3, obs::Stage::kE2e, 0, 100),
  };
  const std::vector<TraceSummary> summaries = BuildTraceSummaries(events);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_FALSE(summaries[0].complete());
  EXPECT_EQ(summaries[0].e2e_micros, 100);
  EXPECT_EQ(summaries[0].covered_micros, 10);
  EXPECT_DOUBLE_EQ(summaries[0].coverage(), 0.1);
  EXPECT_EQ(summaries[0].dominant, obs::Stage::kPublish);
}

TEST(TraceExportTest, SummariesOrderedByStartAndSplitByTrace) {
  std::vector<SpanEvent> events = FullTrace(2, 5000);  // Later transaction.
  const std::vector<SpanEvent> first = FullTrace(1, 1000);
  events.insert(events.end(), first.begin(), first.end());
  const std::vector<TraceSummary> summaries = BuildTraceSummaries(events);
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].trace_id, 1u);
  EXPECT_EQ(summaries[1].trace_id, 2u);
}

TEST(TraceExportTest, CriticalPathReportNamesDominantHop) {
  std::vector<SpanEvent> events;
  for (uint64_t id = 1; id <= 5; ++id) {
    const std::vector<SpanEvent> t = FullTrace(id, static_cast<int64_t>(id) * 1000);
    events.insert(events.end(), t.begin(), t.end());
  }
  const std::string report =
      CriticalPathReport(BuildTraceSummaries(events), /*slowest=*/3);
  // Every transaction's critical path is the broker hop.
  EXPECT_NE(report.find(obs::StageName(obs::Stage::kBroker)),
            std::string::npos);
  EXPECT_NE(report.find("5"), std::string::npos);  // Trace count shows up.
}

TEST(TraceExportTest, TextTimelineCapsTraces) {
  std::vector<SpanEvent> events;
  for (uint64_t id = 1; id <= 10; ++id) {
    const std::vector<SpanEvent> t = FullTrace(id, static_cast<int64_t>(id) * 1000);
    events.insert(events.end(), t.begin(), t.end());
  }
  const std::string timeline = ToTextTimeline(events, /*max_traces=*/2);
  // Exactly two transactions rendered: count per-transaction header lines.
  size_t count = 0;
  const std::string needle = "\ntrace ";
  for (size_t pos = timeline.find(needle); pos != std::string::npos;
       pos = timeline.find(needle, pos + needle.size())) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
  EXPECT_FALSE(ToTextTimeline({}).empty());  // Says "no traces", not crash.
}

}  // namespace
}  // namespace txrep::trace
