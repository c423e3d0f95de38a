#ifndef TXREP_CORE_TRANSACTION_MANAGER_H_
#define TXREP_CORE_TRANSACTION_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "check/mutex.h"
#include "common/logical_clock.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/transaction.h"
#include "kv/kv_store.h"
#include "obs/metrics.h"
#include "qt/query_translator.h"
#include "rel/txlog.h"

namespace txrep::trace {
class Tracer;
class SloWatchdog;
}  // namespace txrep::trace

namespace txrep::core {

/// Tuning knobs of the Transaction Manager.
struct TmOptions {
  /// Threads converting transactions into buffered KV operations (the "top
  /// threadpool" of paper Fig. 8). Paper default: 20.
  int top_threads = 20;

  /// Threads applying committed buffers to the key-value store (the "bottom
  /// threadpool"). Paper default: 20.
  int bottom_threads = 20;

  /// CompletedTransactionList size that triggers the asynchronous removal
  /// pass (Algorithm 2's threshold).
  size_t completed_gc_threshold = 256;

  /// Transient store failures during apply are retried this many times.
  int max_apply_retries = 16;

  /// Backoff between apply retries, microseconds.
  int64_t apply_retry_backoff_micros = 200;

  /// Transient store failures during *execution* restart the transaction at
  /// most this many times before the TM declares failure.
  int max_execution_retries = 64;
};

/// Counters exposed by the TM (snapshot via TransactionManager::stats()).
/// Backed by the metrics registry: stats() reads the registry counters, so
/// this struct and the exported txrep_tm_* metrics always agree.
struct TmStats {
  int64_t submitted = 0;
  int64_t read_only_submitted = 0;
  int64_t committed = 0;
  int64_t completed = 0;
  /// Conflict events detected by Algorithm 1 == transaction restarts
  /// scheduled because of a conflict (the paper reports these as one number).
  int64_t conflicts = 0;
  /// All restarts (conflicts + transient execution errors).
  int64_t restarts = 0;
  int64_t apply_retries = 0;
  int64_t gc_runs = 0;
  int64_t gc_removed = 0;
  /// Pairwise key-set intersections Algorithm 1 evaluated: one per
  /// committed predecessor scanned, one per completed predecessor that
  /// completed after this transaction started.
  int64_t conflict_checks = 0;
  /// Always 0. Kept only because the benchmark harness still reads it to
  /// derive its `core.filter_pass_ratio` per-layer metric; it goes with
  /// that metric in the next benchmark-contract change.
  int64_t class_filter_skips = 0;
};

/// The Transaction Manager (paper §5, Fig. 8/9): applies the shipped update
/// transactions to the key-value store **concurrently** while guaranteeing a
/// result identical to serial execution in the execution-defined order, and
/// lets read-only transactions interleave at chosen sequence positions.
///
/// Pipeline:
///   Submit*() assigns the next sequence number and hands the transaction to
///   the *top pool*, which executes its body against a fresh TxnBuffer
///   (reads hit the store and are recorded; writes stay buffered). The
///   finished transaction enters the CommitReqPQ. A dedicated *controller
///   thread* evaluates transactions strictly in sequence order
///   (Algorithm 1):
///     - conflict with a COMMITTED predecessor  -> park on its restart list
///       (the controller stalls: the expected sequence does not advance);
///     - conflict with a COMPLETED predecessor that completed after this
///       transaction started -> restart immediately;
///     - otherwise commit: advance the expected sequence and hand the buffer
///       to the *bottom pool*, which applies its write set to the store as
///       one MultiWrite (TxnBuffer::ApplyTo), marks the transaction
///       COMPLETED and restarts everything parked on it.
///   An asynchronous pass (Algorithm 2) trims the completed list once it
///   exceeds `completed_gc_threshold`.
///
/// Conflict predicate (paper §5): two transactions conflict iff their
/// read/write key sets intersect as R/W, W/R or W/W — key sets include every
/// row object, hash-index object and B-link node the Query Translator
/// touched, so index maintenance conflicts are detected exactly like row
/// conflicts.
///
/// Thread-safe. Destruction waits for in-flight transactions.
class TransactionManager {
 public:
  /// `store` is the replica; `translator` turns logged ops into KV programs.
  /// Both must outlive the TM. `metrics` (optional, same lifetime rule)
  /// receives the txrep_tm_* counters, stage latency histograms and queue
  /// gauges; when absent the TM keeps a private registry so stats() still
  /// works. `tracer` (optional, same lifetime rule) receives the
  /// commit_eval / apply / e2e spans of sampled transactions; `slo`
  /// (optional, same lifetime rule) is fed every completed transaction's
  /// replica lag.
  TransactionManager(kv::KvStore* store, const qt::QueryTranslator* translator,
                     TmOptions options = {},
                     obs::MetricsRegistry* metrics = nullptr,
                     trace::Tracer* tracer = nullptr,
                     trace::SloWatchdog* slo = nullptr);

  ~TransactionManager();

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// Enqueues one logged update transaction at the next sequence position.
  /// Call in transaction-log order (the subscriber agent does).
  std::shared_ptr<Transaction> SubmitUpdate(rel::LogTransaction log_txn);

  /// Enqueues a read-only transaction at the next sequence position. `body`
  /// runs against a buffered view whose reads are conflict-checked, so the
  /// reads observe exactly the replica state at this sequence point.
  std::shared_ptr<Transaction> SubmitReadOnly(Transaction::Body body);

  /// Blocks until every submitted transaction completed. Returns the sticky
  /// failure status if the TM failed.
  Status WaitIdle();

  /// Quiescent barrier (checkpoint support): blocks *new* submissions, waits
  /// for every in-flight transaction to apply, runs `fn` at the quiescent
  /// point — the replica store then holds exactly the transaction prefix up
  /// to last_applied_lsn(), nothing more — and reopens submissions. `fn`
  /// runs outside the controller mutex (it may do heavy I/O); submissions
  /// stay parked in Submit* until the barrier releases them. Barriers
  /// serialize against each other. Returns `fn`'s status, or the TM's
  /// failure status if it failed before the barrier was reached.
  Status QuiesceBarrier(const std::function<Status()>& fn);

  /// Highest commit LSN among completed update transactions. Because the
  /// bottom pool applies concurrently, this is exact (equal to the applied
  /// *prefix* end) only when the TM is idle or quiesced — the only states
  /// checkpointing reads it in.
  uint64_t last_applied_lsn() const;

  /// Sticky failure status (OK while healthy).
  Status health() const;

  TmStats stats() const;
  const TmOptions& options() const { return options_; }

  /// Current size of the completed list (for GC tests/benches).
  size_t CompletedListSize() const;

  /// Audits the Algorithm 1 bookkeeping invariants (DESIGN.md §8): state/set
  /// agreement (committed ⊆ active, completed ∩ active = ∅), sequence bounds
  /// against expected_seq_, and commit-stamp monotonicity in sequence order —
  /// the in-flight face of the execution-defined-order guarantee. Returns the
  /// first violation found. TXREP_DEBUG_CHECKS builds run this automatically
  /// at every commit evaluation / completion and abort on violation.
  Status CheckInvariants() const;

 private:
  using TxnPtr = std::shared_ptr<Transaction>;

  struct SeqGreater {
    bool operator()(const TxnPtr& a, const TxnPtr& b) const {
      return a->seq() > b->seq();
    }
  };

  TxnPtr SubmitInternal(bool read_only, Transaction::Body body,
                        int64_t db_commit_micros = 0, uint64_t lsn = 0,
                        trace::TraceContext trace = {});

  /// Top-pool task: (re-)executes the body into a fresh buffer, then
  /// enqueues the commit request.
  void ExecuteTask(const TxnPtr& txn);

  /// Controller thread: Algorithm 1 main loop.
  void ControllerLoop();

  /// Evaluates the head transaction.
  void EvaluateLocked(const TxnPtr& txn) TXREP_REQUIRES(mu_);

  /// True iff the two transactions' key sets conflict (R/W, W/R or W/W).
  static bool Conflicts(const Transaction& a, const Transaction& b);

  /// Schedules a fresh execution of `txn`.
  void RestartLocked(const TxnPtr& txn) TXREP_REQUIRES(mu_);

  /// CheckInvariants() body.
  Status CheckInvariantsLocked() const TXREP_REQUIRES(mu_);

  /// No-op unless TXREP_DEBUG_CHECKS: runs CheckInvariantsLocked and aborts
  /// on violation (fail fast — a broken invariant means replay equivalence
  /// is already lost).
  void DebugCheckInvariantsLocked() const TXREP_REQUIRES(mu_);

  /// Bottom-pool task: applies the buffer, completes the transaction,
  /// restarts its parked dependents.
  void ApplyTask(const TxnPtr& txn);

  /// Algorithm 2: asynchronous removal from the completed list.
  void GcTask();

  /// Marks the TM failed and wakes everyone.
  void FailLocked(const Status& status) TXREP_REQUIRES(mu_);

  /// Resolves all instruments from `metrics`. Called once from the ctor,
  /// before any thread starts.
  void WireMetrics(obs::MetricsRegistry* metrics);

  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  kv::KvStore* store_;                      // Not owned.
  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  const qt::QueryTranslator* translator_;   // Not owned.
  const TmOptions options_;
  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  trace::Tracer* tracer_;      // Not owned; may be null.
  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  trace::SloWatchdog* slo_;    // Not owned; may be null.
  // analyze: lock-free(LogicalClock is internally synchronized (atomic))
  LogicalClock clock_;

  /// Private fallback registry when the caller injects none (declared before
  /// the pools/threads so instruments outlive every user).
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;

  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_submitted_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_read_only_submitted_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_committed_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_completed_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_conflicts_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_restarts_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_apply_retries_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_gc_runs_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_gc_removed_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_conflict_checks_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_stage_execute_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_stage_commit_eval_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_stage_apply_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_stage_e2e_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_txn_restarts_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Gauge* g_pq_depth_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Gauge* g_top_backlog_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Gauge* g_bottom_backlog_ = nullptr;

  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<ThreadPool> top_pool_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<ThreadPool> bottom_pool_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<ThreadPool> gc_pool_;  // Single thread: async Algorithm 2.

  mutable check::Mutex mu_{"tm.mu"};
  check::CondVar cv_{&mu_};
  std::priority_queue<TxnPtr, std::vector<TxnPtr>, SeqGreater> commit_req_pq_
      TXREP_GUARDED_BY(mu_);
  /// Next sequence number to hand out.
  uint64_t next_seq_ TXREP_GUARDED_BY(mu_) = 1;
  /// Next sequence the controller will evaluate.
  uint64_t expected_seq_ TXREP_GUARDED_BY(mu_) = 1;
  /// COMMITTED, not yet applied.
  std::map<uint64_t, TxnPtr> committed_ TXREP_GUARDED_BY(mu_);
  /// COMPLETED (until GC).
  std::map<uint64_t, TxnPtr> completed_ TXREP_GUARDED_BY(mu_);
  /// Submitted, not yet completed.
  std::map<uint64_t, TxnPtr> active_ TXREP_GUARDED_BY(mu_);
  bool gc_scheduled_ TXREP_GUARDED_BY(mu_) = false;
  bool stopping_ TXREP_GUARDED_BY(mu_) = false;
  /// A quiescent barrier is draining: Submit* parks until it clears.
  bool quiescing_ TXREP_GUARDED_BY(mu_) = false;
  /// Max commit LSN over completed update transactions (see accessor).
  uint64_t last_applied_lsn_ TXREP_GUARDED_BY(mu_) = 0;
  Status health_ TXREP_GUARDED_BY(mu_) = Status::OK();

  // analyze: lock-free(thread handle; started in ctor, joined in dtor only)
  std::thread controller_;
};

}  // namespace txrep::core

#endif  // TXREP_CORE_TRANSACTION_MANAGER_H_
