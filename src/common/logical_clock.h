#ifndef TXREP_COMMON_LOGICAL_CLOCK_H_
#define TXREP_COMMON_LOGICAL_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace txrep {

/// Monotonic logical timestamp source.
///
/// Algorithm 1 (line 16) and Algorithm 2 (line 6) of the paper compare
/// transaction start / completion times. Wall clocks can tie or go backwards
/// across threads; a process-wide atomic counter gives a strict total order,
/// which makes the "T_i started before T_j completed" tests exact and the
/// correctness proofs (and tests) deterministic.
///
/// Tick() is an acq_rel read-modify-write. Algorithm 1 reasons "T_i started
/// after T_j completed, so T_i's reads saw T_j's writes": T_j applies its
/// writes and then ticks its completion stamp, T_i ticks its start stamp and
/// then reads. A relaxed RMW orders the stamps but not the memory around
/// them; acq_rel makes T_j's writes happen-before T_i's reads (RMWs continue
/// the release sequence). On x86 both compile to the same `lock xadd`.
class LogicalClock {
 public:
  LogicalClock() : next_(1) {}

  LogicalClock(const LogicalClock&) = delete;
  LogicalClock& operator=(const LogicalClock&) = delete;

  /// Returns a timestamp strictly greater than every previously returned one.
  uint64_t Tick() { return next_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  std::atomic<uint64_t> next_;
};

}  // namespace txrep

#endif  // TXREP_COMMON_LOGICAL_CLOCK_H_
