#ifndef TXREP_CHECK_SCHEDULE_EXPLORER_H_
#define TXREP_CHECK_SCHEDULE_EXPLORER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "kv/kv_types.h"

namespace txrep::rel {
class Database;
}
namespace txrep::qt {
class QueryTranslator;
}

namespace txrep::check {

/// Knobs of the schedule-exploration harness.
struct ScheduleExplorerOptions {
  /// Schedule i explores seed base_seed + i.
  uint64_t base_seed = 1;

  /// How many seeds to explore. Each seed derives a complete configuration:
  /// workload shape (hot-row count, statement mix), TM thread counts, store
  /// service time, failure injection, GC threshold, B-link node size and
  /// the read-only interleave rate.
  int schedules = 200;

  /// Update transactions generated per schedule.
  int txns_per_schedule = 40;

  /// Run the full replica-equivalence audit (rows + hash postings + B-link
  /// structure) every Nth schedule in addition to the byte-equality check.
  /// 0 disables the audit. The audit is an order of magnitude slower than
  /// the dump comparison, hence the sampling.
  int audit_every = 8;

  /// Crash-restart mode (requires `scratch_dir`): after the concurrent /
  /// serial comparison, each schedule additionally replays through a TM that
  /// "crashes" at a seed-derived LSN right after taking a checkpoint —
  /// optionally preceded by a seed-derived faulted checkpoint attempt (torn
  /// manifest or crash mid-snapshot-files) whose debris must be ignored. A
  /// fresh process-equivalent then recovers from the newest usable
  /// checkpoint, replays the log tail, and must be byte-identical to serial
  /// replay.
  bool crash_restart = false;

  /// Directory for crash-restart checkpoint files; each seed uses a private
  /// subdirectory that is wiped before and after the schedule.
  std::string scratch_dir;

  /// Traced mode: the concurrent TM replays with a live Tracer whose
  /// sampling period is drawn from a private random stream (so existing
  /// seeds reproduce identically in either mode), with contexts minted per
  /// LSN exactly as the pipeline would. The byte-equality oracle is
  /// unchanged — a diverging dump means tracing perturbed replay — and a
  /// schedule whose period guarantees sampled transactions must leave spans
  /// in the flight recorder (else the tracing path silently dropped out).
  bool traced = false;

  /// Batched-apply mode: the concurrent replica becomes a seed-derived
  /// KvCluster (node count and dispatch threads drawn from the seed), so the
  /// MultiWrite routing and per-node fan-out path joins the explored state
  /// space. The cluster shape comes from a private random stream, so
  /// existing seeds reproduce identically in either mode.
  bool batched_apply = false;

  /// Wire mode: each schedule additionally replays through the full
  /// cross-process wire boundary — publisher → broker → NetEndpoint →
  /// socketpair frames → NetSubscription → remote replica — with frame
  /// batch size, queue bounds, credit window and a kill point all drawn
  /// from a private random stream (existing seeds reproduce identically in
  /// either mode). Mid-stream the connection is hard-killed (server
  /// DropSessions or client InjectDisconnect, seed's choice) and the
  /// subscriber must reconnect, resume from its high-water LSN, dedup the
  /// replayed retention, and still end byte-identical to serial replay —
  /// the paper's replica-equivalence oracle applied across the wire.
  bool wire = false;

  /// Optimistic-latch mode: exercises the B-link version-latch protocol
  /// (DESIGN.md §14) from two directions. (a) During the concurrent replay a
  /// seed-derived fraction of the interleaved read-only transactions become
  /// *index probes*: each builds an ephemeral BlinkTree over its buffered
  /// view and runs a full range scan, so the optimistic read path sees the
  /// torn cross-key snapshots a transaction buffer can serve (scans must
  /// still come back sorted; Aborted is legal and flows into the TM's
  /// restart machinery). (b) After the replay, a scratch-store hammer runs
  /// seed-derived reader threads (scans, point lookups, entry counts)
  /// against writer threads inserting through the tree while MultiWrite
  /// batches land row noise in the same store; readers must never
  /// observe a missing seed entry or unsorted output, and the quiesced tree
  /// must pass the structural + latch audits with an exact entry count. The
  /// knobs come from a private random stream, so existing seeds reproduce
  /// identically in either mode.
  bool opt_latch = false;

  /// TPC-C mode: the seed's workload becomes a TPC-C-lite deployment
  /// (src/workload/tpcc.h) instead of the single-table synthetic — schema +
  /// population + a NewOrder/Payment write stream whose warehouse count,
  /// district/customer/item scale, warehouse Zipf skew, mix weights and
  /// remote-line fraction are all drawn from a private random stream. The
  /// contended district counters and cross-table multi-statement commits put
  /// multi-table write sets into the explored state space; interleaved
  /// read-only probes target CUSTOMER rows and opt_latch index probes move to
  /// the churning STOCK.S_QUANTITY index.
  /// Composes with crash_restart, batched_apply, traced and wire.
  bool tpcc = false;
};

/// One schedule that diverged from serial replay (or tripped an invariant).
struct ScheduleFailure {
  uint64_t seed = 0;
  std::string detail;
};

/// Aggregate outcome of an exploration run.
struct ScheduleReport {
  int schedules_run = 0;
  int64_t transactions_replayed = 0;
  /// Conflict/restart totals across all schedules — a health signal for the
  /// exploration itself: if these are ~0 the schedules are not adversarial
  /// enough to mean anything.
  int64_t conflicts = 0;
  int64_t restarts = 0;
  /// Optimistic B-link read events (validation retries + lock-bit spins +
  /// move-rights + root restarts) accumulated by opt_latch-mode hammers —
  /// the health signal that the version-latch protocol actually engaged
  /// (~0 means readers never raced a writer).
  int64_t blink_read_events = 0;
  std::vector<ScheduleFailure> failures;

  bool ok() const { return failures.empty(); }

  /// One-line summary, e.g.
  /// "schedules=200 txns=8000 conflicts=1234 restarts=1301 failures=0".
  std::string Summary() const;
};

/// Randomized schedule exploration for the Transaction Manager (DESIGN.md
/// §8): for each seed, generate a randomized insert/update/delete workload
/// (with hash- and range-index maintenance so index objects join the
/// conflict sets), replay it twice — once serially, once through a TM whose
/// every knob is drawn from the seed — and require the two replicas to be
/// byte-identical. Adversarial pressure comes from hot-row contention, store
/// service-time jitter, transient-failure injection (exercising the restart
/// path) and interleaved read-only transactions; TM bookkeeping is audited
/// via CheckInvariants() after every schedule, and the full replica-
/// equivalence audit runs on a sample of schedules.
///
/// A divergence means Algorithm 1 committed a non-serializable order — the
/// exact bug class the paper's design must exclude.
class ScheduleExplorer {
 public:
  explicit ScheduleExplorer(ScheduleExplorerOptions options = {});

  /// Explores all schedules. Infrastructure failures (a schedule that cannot
  /// even run) are reported as failures too, never thrown.
  ScheduleReport Run();

  /// Runs the single schedule derived from `seed`. OK when concurrent replay
  /// matches serial replay and all invariants hold.
  Status RunOne(uint64_t seed);

 private:
  /// RunOne body that also accumulates stats into `report` (null ok).
  Status RunOneInternal(uint64_t seed, ScheduleReport* report);

  /// Crash-restart phase of one schedule: checkpoint at a seed-derived
  /// point, discard the live replica, recover from disk + log tail, compare
  /// against `serial_dump`.
  Status RunCrashRestart(uint64_t seed, rel::Database& db,
                         const qt::QueryTranslator& translator,
                         const kv::StoreDump& serial_dump);

  /// Wire phase of one schedule: replay the log over a socketpair into a
  /// RemoteReplica (catalog over the wire), kill the connection mid-stream,
  /// and compare the reconnected replica against `serial_dump`.
  /// `max_node_keys` pins the remote B-link layout to the serial one.
  Status RunWire(uint64_t seed, rel::Database& db, size_t max_node_keys,
                 const kv::StoreDump& serial_dump);

  /// Optimistic-latch hammer of one schedule: seed-derived reader threads
  /// run scans / lookups / counts through one shared BlinkTree on a scratch
  /// store while writer threads insert through the tree and MultiWrite
  /// batches land row noise beside it; ends with the structural +
  /// latch audits and an exact entry count. Accumulates the tree's read
  /// events into `report` (null ok).
  Status RunOptLatchHammer(uint64_t seed, size_t max_node_keys,
                           ScheduleReport* report);

  const ScheduleExplorerOptions options_;
};

}  // namespace txrep::check

#endif  // TXREP_CHECK_SCHEDULE_EXPLORER_H_
