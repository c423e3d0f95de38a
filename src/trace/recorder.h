#ifndef TXREP_TRACE_RECORDER_H_
#define TXREP_TRACE_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/names.h"

namespace txrep::trace {

/// One recorded span: a contiguous wall-clock interval [start, end] of one
/// pipeline hop, with the queue-wait share split out of the total. All
/// timestamps are NowMicros() (steady clock), so intervals of different hops
/// of the same transaction are directly comparable.
struct SpanEvent {
  uint64_t trace_id = 0;
  uint64_t lsn = 0;
  obs::Stage stage = obs::Stage::kPublish;
  int64_t start_micros = 0;
  int64_t end_micros = 0;
  /// Time spent waiting (log tail, broker queue, commit-req PQ, bottom-pool
  /// queue) before the hop started servicing; <= end - start.
  int64_t queue_micros = 0;

  int64_t duration_micros() const { return end_micros - start_micros; }
  int64_t service_micros() const { return duration_micros() - queue_micros; }
};

struct FlightRecorderOptions {
  /// Total slots across all shards (rounded up to shards). Memory bound:
  /// capacity * sizeof(Slot) ~= capacity * 64 bytes (2 MiB at the default).
  size_t capacity = 32768;
  /// Ring shards; threads spread across them to keep recording contention-
  /// free. Rounded up to a power of two.
  size_t shards = 8;
};

/// Always-on, bounded-memory, lock-free flight recorder: the last N spans of
/// the replication pipeline, dumpable at any instant (on demand, or by the
/// SLO watchdog when apply progress stalls) without stopping writers.
///
/// Design (DESIGN.md §11): sharded rings of seqlock slots. A writer takes a
/// ticket from its shard's monotone counter, claims the target slot by
/// CASing its sequence from "complete" to the odd write-in-progress value,
/// publishes the payload, then releases with the even completion value.
/// A failed claim (another writer still mid-publish on a lapped slot) drops
/// the event — recording never blocks and never tears. Readers accept a slot
/// only when the sequence is even, non-zero and unchanged across the payload
/// read. Payload fields are relaxed atomics; the seqlock's acquire/release
/// pair orders them.
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {});

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Lock-free; drops (and counts) the event instead of ever waiting.
  /// Returns false when the event was dropped.
  bool Record(const SpanEvent& event);

  /// Snapshot of every currently-valid slot, ordered by start time. Safe
  /// concurrently with writers; spans being overwritten mid-read are skipped.
  std::vector<SpanEvent> Dump() const;

  int64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Actual slot capacity after rounding (Dump() never returns more).
  size_t capacity() const { return shards_.size() * slots_per_shard_; }

 private:
  struct Slot {
    /// 0 = never written; odd = write in progress; even > 0 = complete.
    /// Strictly increases across a slot's generations (derived from the
    /// shard ticket), so a reader detects overwrites as a sequence change.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> lsn{0};
    std::atomic<uint32_t> stage{0};
    std::atomic<int64_t> start_micros{0};
    std::atomic<int64_t> end_micros{0};
    std::atomic<int64_t> queue_micros{0};
  };

  struct alignas(64) Shard {
    std::atomic<uint64_t> next_ticket{0};
    std::unique_ptr<Slot[]> slots;
  };

  static size_t ShardIndex(size_t num_shards);

  std::vector<Shard> shards_;
  size_t slots_per_shard_ = 0;
  std::atomic<int64_t> recorded_{0};
  std::atomic<int64_t> dropped_{0};
};

}  // namespace txrep::trace

#endif  // TXREP_TRACE_RECORDER_H_
