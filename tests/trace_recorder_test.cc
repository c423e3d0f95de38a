// Flight-recorder tests: bounded memory under wraparound, self-consistent
// dumps under concurrent writers (the seqlock must never surface a torn
// span), and exact recorded/dropped accounting. The concurrent cases are the
// ones the tsan leg of `ci.sh --matrix` is after.

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "trace/recorder.h"

namespace txrep::trace {
namespace {

SpanEvent MakeEvent(uint64_t id, obs::Stage stage = obs::Stage::kApply) {
  SpanEvent event;
  event.trace_id = id;
  event.lsn = id;
  event.stage = stage;
  // Encode the identity into every payload field so a torn read (fields of
  // two different writes mixed) is detectable below.
  event.start_micros = static_cast<int64_t>(id) * 1000;
  event.end_micros = static_cast<int64_t>(id) * 1000 + 10;
  event.queue_micros = 3;
  return event;
}

TEST(TraceRecorderTest, RecordAndDump) {
  FlightRecorder recorder({.capacity = 64, .shards = 1});
  EXPECT_EQ(recorder.capacity(), 64u);
  for (uint64_t i = 1; i <= 10; ++i) {
    EXPECT_TRUE(recorder.Record(MakeEvent(i)));
  }
  const std::vector<SpanEvent> dump = recorder.Dump();
  ASSERT_EQ(dump.size(), 10u);
  // Dump is ordered by start time.
  for (size_t i = 0; i < dump.size(); ++i) {
    EXPECT_EQ(dump[i].trace_id, i + 1);
    EXPECT_EQ(dump[i].duration_micros(), 10);
    EXPECT_EQ(dump[i].service_micros(), 7);
  }
  EXPECT_EQ(recorder.recorded(), 10);
  EXPECT_EQ(recorder.dropped(), 0);
}

TEST(TraceRecorderTest, WraparoundKeepsNewestAndBoundsMemory) {
  FlightRecorder recorder({.capacity = 16, .shards = 1});
  const uint64_t total = 100;
  for (uint64_t i = 1; i <= total; ++i) {
    EXPECT_TRUE(recorder.Record(MakeEvent(i)));
  }
  const std::vector<SpanEvent> dump = recorder.Dump();
  ASSERT_EQ(dump.size(), 16u);  // Never more than capacity.
  // Single-threaded wraparound keeps exactly the newest window.
  for (const SpanEvent& event : dump) {
    EXPECT_GT(event.trace_id, total - 16);
    EXPECT_LE(event.trace_id, total);
  }
  EXPECT_EQ(recorder.recorded(), static_cast<int64_t>(total));
}

TEST(TraceRecorderTest, ConcurrentWritersNeverTearAndAccountExactly) {
  FlightRecorder recorder({.capacity = 128, .shards = 4});
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  std::atomic<int64_t> accepted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, &accepted, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * kPerThread + i + 1;
        if (recorder.Record(MakeEvent(id))) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 64 == 0) {
          // Concurrent dumps must observe only whole spans (checked below on
          // this thread's own view too).
          for (const SpanEvent& event : recorder.Dump()) {
            ASSERT_EQ(event.start_micros,
                      static_cast<int64_t>(event.trace_id) * 1000);
            ASSERT_EQ(event.end_micros, event.start_micros + 10);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every attempt is either recorded or dropped, nothing double-counted.
  EXPECT_EQ(recorder.recorded() + recorder.dropped(),
            static_cast<int64_t>(kThreads * kPerThread));
  EXPECT_EQ(recorder.recorded(), accepted.load());

  // The final dump is whole, unique and within capacity.
  const std::vector<SpanEvent> dump = recorder.Dump();
  EXPECT_LE(dump.size(), recorder.capacity());
  std::set<uint64_t> ids;
  for (const SpanEvent& event : dump) {
    EXPECT_EQ(event.start_micros,
              static_cast<int64_t>(event.trace_id) * 1000);
    EXPECT_EQ(event.end_micros, event.start_micros + 10);
    EXPECT_EQ(event.queue_micros, 3);
    EXPECT_TRUE(ids.insert(event.trace_id).second)
        << "trace " << event.trace_id << " appeared twice";
  }
}

TEST(TraceRecorderTest, CapacityRoundsUpToShardMultiple) {
  FlightRecorder recorder({.capacity = 10, .shards = 3});  // Shards -> 4.
  EXPECT_GE(recorder.capacity(), 10u);
  EXPECT_EQ(recorder.capacity() % 4, 0u);
}

TEST(TraceRecorderTest, InvalidStageSkippedOnDump) {
  FlightRecorder recorder({.capacity = 8, .shards = 1});
  SpanEvent event = MakeEvent(1);
  EXPECT_TRUE(recorder.Record(event));
  // A stage from a newer/corrupt writer must not crash the exporter path.
  event.trace_id = 2;
  event.stage = static_cast<obs::Stage>(250);
  EXPECT_TRUE(recorder.Record(event));
  const std::vector<SpanEvent> dump = recorder.Dump();
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].trace_id, 1u);
}

}  // namespace
}  // namespace txrep::trace
