#include "trace/recorder.h"

#include <algorithm>

namespace txrep::trace {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options) {
  const size_t num_shards = RoundUpPow2(std::max<size_t>(1, options.shards));
  slots_per_shard_ =
      std::max<size_t>(1, (std::max<size_t>(1, options.capacity) +
                           num_shards - 1) /
                              num_shards);
  shards_ = std::vector<Shard>(num_shards);
  for (Shard& shard : shards_) {
    shard.slots = std::make_unique<Slot[]>(slots_per_shard_);
  }
}

size_t FlightRecorder::ShardIndex(size_t num_shards) {
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index & (num_shards - 1);  // num_shards is a power of two.
}

bool FlightRecorder::Record(const SpanEvent& event) {
  Shard& shard = shards_[ShardIndex(shards_.size())];
  const uint64_t ticket =
      shard.next_ticket.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = shard.slots[ticket % slots_per_shard_];

  // Claim: complete (even) -> this generation's odd value. A slot still odd
  // belongs to a writer we lapped; losing the CAS means another ticket got
  // here first. Either way the event is dropped, never torn.
  uint64_t expected = slot.seq.load(std::memory_order_relaxed);
  const uint64_t write_seq = 2 * ticket + 1;
  if ((expected & 1) != 0 || expected >= write_seq ||
      !slot.seq.compare_exchange_strong(expected, write_seq,
                                        std::memory_order_acq_rel)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slot.trace_id.store(event.trace_id, std::memory_order_relaxed);
  slot.lsn.store(event.lsn, std::memory_order_relaxed);
  slot.stage.store(static_cast<uint32_t>(event.stage),
                   std::memory_order_relaxed);
  slot.start_micros.store(event.start_micros, std::memory_order_relaxed);
  slot.end_micros.store(event.end_micros, std::memory_order_relaxed);
  slot.queue_micros.store(event.queue_micros, std::memory_order_relaxed);
  slot.seq.store(write_seq + 1, std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<SpanEvent> FlightRecorder::Dump() const {
  std::vector<SpanEvent> out;
  out.reserve(capacity());
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < slots_per_shard_; ++i) {
      const Slot& slot = shard.slots[i];
      const uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
      if (seq_before == 0 || (seq_before & 1) != 0) continue;
      SpanEvent event;
      event.trace_id = slot.trace_id.load(std::memory_order_relaxed);
      event.lsn = slot.lsn.load(std::memory_order_relaxed);
      const uint32_t raw_stage = slot.stage.load(std::memory_order_relaxed);
      event.start_micros = slot.start_micros.load(std::memory_order_relaxed);
      event.end_micros = slot.end_micros.load(std::memory_order_relaxed);
      event.queue_micros = slot.queue_micros.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != seq_before) continue;
      if (raw_stage >= static_cast<uint32_t>(obs::kNumStages)) continue;
      event.stage = static_cast<obs::Stage>(raw_stage);
      out.push_back(event);
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanEvent& a, const SpanEvent& b) {
    if (a.start_micros != b.start_micros) {
      return a.start_micros < b.start_micros;
    }
    if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
    return static_cast<uint32_t>(a.stage) < static_cast<uint32_t>(b.stage);
  });
  return out;
}

}  // namespace txrep::trace
