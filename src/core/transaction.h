#ifndef TXREP_CORE_TRANSACTION_H_
#define TXREP_CORE_TRANSACTION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "check/mutex.h"

#include "common/status.h"
#include "core/txn_buffer.h"
#include "kv/kv_store.h"
#include "trace/context.h"

namespace txrep::core {

/// Transaction lifecycle states (paper §5).
enum class TxnState : uint8_t {
  kActive = 0,     // Executing (or awaiting commit evaluation / restart).
  kCommitted = 1,  // Passed conflict evaluation; buffer not yet applied.
  kCompleted = 2,  // Buffer applied to the key-value store.
};

/// Returns "ACTIVE", "COMMITTED" or "COMPLETED".
const char* TxnStateName(TxnState state);

/// One replica-side transaction flowing through the Transaction Manager:
/// either an update transaction shipped from the database log or an
/// interleaved read-only transaction. Shared between the thread pools and the
/// concurrency controller via shared_ptr; all mutable fields below are
/// protected by the TransactionManager's controller mutex unless noted.
class Transaction {
 public:
  /// The transaction body executes against a buffered KvStore view; for
  /// update transactions it is the Query Translator replaying the logged
  /// ops, for read-only transactions an arbitrary caller-supplied read
  /// program.
  using Body = std::function<Status(kv::KvStore*)>;

  Transaction(uint64_t seq, bool read_only, Body body)
      : seq_(seq), read_only_(read_only), body_(std::move(body)) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  uint64_t seq() const { return seq_; }
  bool read_only() const { return read_only_; }
  const Body& body() const { return body_; }

  /// Blocks until the transaction reaches COMPLETED (or the TM fails); then
  /// returns its final status.
  Status Wait();

  /// Final status after Wait() returned.
  Status final_status() const;

  /// Number of restarts this transaction suffered (stable after Wait()).
  int restarts() const { return restart_count; }

  // --- fields below are owned by the TransactionManager ----------------

  /// Signals completion to Wait()ers. Called exactly once.
  void Finish(Status status);

  // analyze: lock-free(owned by one pipeline stage at a time; queue handoff orders access)
  TxnState state = TxnState::kActive;
  /// Logical stamp at (re-)execution start. Atomic because the executing
  /// thread stamps it lock-free while the GC pass reads it under the
  /// controller mutex.
  std::atomic<uint64_t> start_time{0};
  // analyze: lock-free(written at commit eval, read downstream; staged handoff orders access)
  uint64_t commit_time = 0;    // Logical stamp at commit.
  // analyze: lock-free(written by the completing stage only)
  uint64_t complete_time = 0;  // Logical stamp after apply.
  // analyze: lock-free(written during execute, read after handoff)
  Status execution_status;     // Outcome of the last body run.
  // analyze: lock-free(built during execute; read-only once the txn is queued)
  std::unique_ptr<TxnBuffer> buffer;  // Rebuilt on every (re-)execution.
  /// Transactions parked on this one: restarted when it completes
  /// (Algorithm 1 line 11 / 25).
  // analyze: lock-free(guarded by the manager's commit-eval serialization, not a member mutex)
  std::vector<std::shared_ptr<Transaction>> restart_list;
  // analyze: lock-free(guarded by the manager's commit-eval serialization, not a member mutex)
  int restart_count = 0;

  /// Wall-clock stamps for pipeline stage latency (0 when unknown):
  /// db_commit_micros carries the original database's commit instant for
  /// shipped update transactions; submit_micros is stamped when the
  /// transaction entered the TM (the commit_eval span origin);
  /// enqueue_micros when the execution result enters the CommitReqPQ;
  /// commit_wall_micros when Algorithm 1 reaches the commit decision (the
  /// apply span origin).
  // analyze: lock-free(timestamp stamped by exactly one stage)
  int64_t db_commit_micros = 0;
  // analyze: lock-free(timestamp stamped by exactly one stage)
  int64_t submit_micros = 0;
  // analyze: lock-free(timestamp stamped by exactly one stage)
  int64_t enqueue_micros = 0;
  // analyze: lock-free(timestamp stamped by exactly one stage)
  int64_t commit_wall_micros = 0;

  /// Trace identity of the shipped update transaction (unsampled default
  /// for read-only transactions); set at submission, read-only afterwards.
  // analyze: lock-free(span context; written by the owning stage only)
  trace::TraceContext trace;

  /// Commit LSN of the shipped update transaction this one replays (0 for
  /// read-only transactions). The TM folds it into last_applied_lsn() when
  /// the transaction completes — the basis of checkpoint snapshot epochs.
  // analyze: lock-free(assigned once at log append, immutable afterwards)
  uint64_t lsn = 0;

 private:
  const uint64_t seq_;
  const bool read_only_;
  const Body body_;

  mutable check::Mutex done_mu_{"transaction.done"};
  check::CondVar done_cv_{&done_mu_};
  bool done_ TXREP_GUARDED_BY(done_mu_) = false;
  Status final_status_ TXREP_GUARDED_BY(done_mu_);
};

}  // namespace txrep::core

#endif  // TXREP_CORE_TRANSACTION_H_
