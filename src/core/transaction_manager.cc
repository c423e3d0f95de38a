#include "core/transaction_manager.h"


#include <cstdlib>
#include <limits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/names.h"

namespace txrep::core {
namespace {

using KeySet = std::unordered_set<std::string>;

constexpr int kConflictEvent = 0;
constexpr int kApplyOrderEvent = 1;

bool Intersects(const KeySet& x, const KeySet& y) {
  const KeySet& small = x.size() <= y.size() ? x : y;
  const KeySet& large = x.size() <= y.size() ? y : x;
  for (const std::string& key : small) {
    if (large.contains(key)) return true;
  }
  return false;
}

unsigned ClassBit(const std::string& key) {
  return 1u << static_cast<unsigned>(codec::ClassifyKey(key));
}

/// The key classes of the keys in both sets, one bit per codec::KeyClass.
unsigned SharedClasses(const KeySet& x, const KeySet& y) {
  const KeySet& small = x.size() <= y.size() ? x : y;
  const KeySet& large = x.size() <= y.size() ? y : x;
  unsigned classes = 0;
  for (const std::string& key : small) {
    if (large.contains(key)) classes |= ClassBit(key);
  }
  return classes;
}

}  // namespace

TransactionManager::TransactionManager(kv::KvStore* store,
                                       const qt::QueryTranslator* translator,
                                       TmOptions options,
                                       obs::MetricsRegistry* metrics,
                                       trace::Tracer* tracer,
                                       trace::SloWatchdog* slo)
    : store_(store),
      translator_(translator),
      options_(options),
      owned_metrics_(metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      hops_(metrics != nullptr ? metrics : owned_metrics_.get(), tracer,
            slo) {
  if (metrics == nullptr) metrics = owned_metrics_.get();
  WireMetrics(metrics);
  top_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(options_.top_threads), "tm-top");
  bottom_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(options_.bottom_threads), "tm-bottom");
  gc_pool_ = std::make_unique<ThreadPool>(1, "tm-gc");
  controller_ = std::thread([this] { ControllerLoop(); });
}

void TransactionManager::WireMetrics(obs::MetricsRegistry* metrics) {
  c_submitted_ = metrics->GetCounter(obs::kTmSubmitted);
  c_read_only_submitted_ = metrics->GetCounter(obs::kTmReadOnlySubmitted);
  c_committed_ = metrics->GetCounter(obs::kTmCommitted);
  c_completed_ = metrics->GetCounter(obs::kTmCompleted);
  c_conflicts_ = metrics->GetCounter(obs::kTmConflicts);
  c_restarts_ = metrics->GetCounter(obs::kTmRestarts);
  c_apply_retries_ = metrics->GetCounter(obs::kTmApplyRetries);
  c_gc_runs_ = metrics->GetCounter(obs::kTmGcRuns);
  c_gc_removed_ = metrics->GetCounter(obs::kTmGcRemoved);
  c_conflict_checks_ = metrics->GetCounter(obs::kTmConflictChecks);
  c_apply_orders_ = metrics->GetCounter(obs::kTmApplyOrders);
  for (int kind : {kConflictEvent, kApplyOrderEvent}) {
    for (int c = 0; c < codec::kKeyClassCount; ++c) {
      c_conflict_keys_[kind][c] = metrics->GetCounter(
          obs::kTmConflictKeys,
          {{"class", codec::KeyClassName(static_cast<codec::KeyClass>(c))},
           {"kind", kind == kConflictEvent ? obs::kTmEventConflict
                                           : obs::kTmEventApplyOrder}});
    }
  }
  h_execute_ = metrics->GetHistogram(obs::kTmExecuteLatency);
  h_txn_restarts_ = metrics->GetHistogram(obs::kTmTxnRestarts);
  g_pq_depth_ =
      metrics->GetGauge(obs::kQueueDepth, {{"queue", obs::kQueueCommitReqPq}});
  g_top_backlog_ =
      metrics->GetGauge(obs::kQueueDepth, {{"queue", obs::kQueueTmTop}});
  g_bottom_backlog_ =
      metrics->GetGauge(obs::kQueueDepth, {{"queue", obs::kQueueTmBottom}});
}

TransactionManager::~TransactionManager() {
  // analyze: discard(destructor drain; nothing to return a timeout to)
  (void)WaitIdle();
  {
    check::MutexLock lock(&mu_);
    stopping_ = true;
    cv_.NotifyAll();
  }
  controller_.join();
  top_pool_->Shutdown();
  bottom_pool_->Shutdown();
  gc_pool_->Shutdown();
}

std::shared_ptr<Transaction> TransactionManager::SubmitUpdate(
    rel::LogTransaction log_txn) {
  const int64_t db_commit_micros = log_txn.commit_micros;
  const uint64_t lsn = log_txn.lsn;
  const trace::TraceContext trace = log_txn.trace;
  auto payload = std::make_shared<rel::LogTransaction>(std::move(log_txn));
  return SubmitInternal(
      /*read_only=*/false,
      [this, payload](kv::KvStore* view) {
        return translator_->ApplyTransaction(view, *payload);
      },
      db_commit_micros, lsn, trace);
}

std::shared_ptr<Transaction> TransactionManager::SubmitReadOnly(
    Transaction::Body body) {
  return SubmitInternal(/*read_only=*/true, std::move(body));
}

TransactionManager::TxnPtr TransactionManager::SubmitInternal(
    bool read_only, Transaction::Body body, int64_t db_commit_micros,
    uint64_t lsn, trace::TraceContext trace) {
  TxnPtr txn;
  {
    check::MutexLock lock(&mu_);
    // A quiescent barrier owns the sequence space while it drains; new
    // arrivals park here so the snapshot ends at an exact txn boundary.
    while (quiescing_ && health_.ok()) cv_.Wait();
    txn = std::make_shared<Transaction>(next_seq_++, read_only,
                                        std::move(body));
    txn->db_commit_micros = db_commit_micros;
    txn->lsn = lsn;
    txn->trace = trace;
    txn->submit_micros = NowMicros();
    if (!health_.ok()) {
      txn->Finish(health_);
      return txn;
    }
    active_[txn->seq()] = txn;
    c_submitted_->Increment();
    if (read_only) c_read_only_submitted_->Increment();
  }
  top_pool_->Submit([this, txn] { ExecuteTask(txn); });
  g_top_backlog_->Set(static_cast<int64_t>(top_pool_->QueueDepth()));
  return txn;
}

void TransactionManager::ExecuteTask(const TxnPtr& txn) {
  {
    check::MutexLock lock(&mu_);
    if (!health_.ok()) {
      txn->Finish(health_);
      return;
    }
    // Stamp the start strictly before the first read (Algorithm 1 relies on
    // start/complete ordering to decide which completed writers might have
    // been missed), and under mu_: an Algorithm 2 pass then either sees this
    // stamp or ran before it was drawn, when every stamp it could drop was
    // older than this start.
    txn->start_time = clock_.Tick();
  }
  const int64_t exec_start = NowMicros();
  auto buffer = std::make_unique<TxnBuffer>(store_);
  // A restart re-reads what its previous execution read in one round trip.
  // The prefetch runs after the stamp, so every value the body sees was read
  // after start_time, exactly as in a fresh execution; keys the body no
  // longer asks for never become reads. Nobody else touches a restarting
  // transaction's previous buffer (it is in no conflict list).
  if (txn->buffer != nullptr) {
    const auto& previous_reads = txn->buffer->read_set();
    const std::vector<kv::Key> keys(previous_reads.begin(),
                                    previous_reads.end());
    buffer->Prefetch(keys);
  }
  Status status = txn->body()(buffer.get());
  buffer->DiscardUnreadPrefetch();
  h_execute_->Record(NowMicros() - exec_start);
  {
    check::MutexLock lock(&mu_);
    txn->buffer = std::move(buffer);
    txn->execution_status = std::move(status);
    txn->enqueue_micros = NowMicros();
    commit_req_pq_.push(txn);
    g_pq_depth_->Set(static_cast<int64_t>(commit_req_pq_.size()));
    cv_.NotifyAll();
  }
}

void TransactionManager::ControllerLoop() {
  check::MutexLock lock(&mu_);
  for (;;) {
    while (!(stopping_ || !health_.ok() ||
             (!commit_req_pq_.empty() &&
              commit_req_pq_.top()->seq() == expected_seq_))) {
      cv_.Wait();
    }
    if (stopping_ || !health_.ok()) return;
    TxnPtr txn = commit_req_pq_.top();
    commit_req_pq_.pop();
    g_pq_depth_->Set(static_cast<int64_t>(commit_req_pq_.size()));
    EvaluateLocked(txn);
  }
}

TransactionManager::Overlap TransactionManager::Conflicts(
    const Transaction& a, const Transaction& b) {
  const KeySet& a_reads = a.buffer->read_set();
  const KeySet& a_writes = a.buffer->write_set();
  const KeySet& b_reads = b.buffer->read_set();
  const KeySet& b_writes = b.buffer->write_set();
  // R/W and W/R conflict (paper §5). W/W alone only orders the two applies.
  if (Intersects(a_reads, b_writes) || Intersects(a_writes, b_reads)) {
    return Overlap::kConflict;
  }
  return Intersects(a_writes, b_writes) ? Overlap::kWriteWrite : Overlap::kNone;
}

unsigned TransactionManager::StaleClassesLocked(const Transaction& txn) const {
  const uint64_t start = txn.start_time;
  unsigned classes = 0;
  auto stale = [start](const std::unordered_map<std::string, uint64_t>& stamps,
                       const std::string& key) {
    auto it = stamps.find(key);
    return it != stamps.end() && it->second > start;
  };
  for (const std::string& key : txn.buffer->read_set()) {
    if (stale(last_write_complete_, key)) classes |= ClassBit(key);
  }
  for (const std::string& key : txn.buffer->write_set()) {
    if (stale(last_read_complete_, key)) classes |= ClassBit(key);
  }
  return classes;
}

void TransactionManager::CountKeyClasses(int kind, unsigned classes) {
  for (int c = 0; c < codec::kKeyClassCount; ++c) {
    if ((classes >> c) & 1u) c_conflict_keys_[kind][c]->Increment();
  }
}

void TransactionManager::SubmitApplyLocked(const TxnPtr& txn) {
  bottom_pool_->Submit([this, txn] { ApplyTask(txn); });
  g_bottom_backlog_->Set(static_cast<int64_t>(bottom_pool_->QueueDepth()));
}

void TransactionManager::RestartLocked(const TxnPtr& txn) {
  c_restarts_->Increment();
  ++txn->restart_count;
  txn->state = TxnState::kActive;
  top_pool_->SubmitUrgent([this, txn] { ExecuteTask(txn); });
}

void TransactionManager::EvaluateLocked(const TxnPtr& txn) {
  DebugCheckInvariantsLocked();
  // Lines 9-14: conflicts with committed (not yet applied) predecessors.
  // Their writes are invisible, so this transaction may have read stale
  // data; park it until the first conflicting predecessor completes. The
  // expected sequence stays put — the controller stalls, as in the paper. A
  // predecessor that only writes what this transaction writes is no reason
  // to re-execute: it becomes an apply predecessor instead.
  std::vector<TxnPtr> apply_after;
  for (auto& [seq, tj] : committed_) {
    c_conflict_checks_->Increment();
    const Overlap overlap = Conflicts(*txn, *tj);
    if (overlap == Overlap::kConflict) {
      c_conflicts_->Increment();
      CountKeyClasses(kConflictEvent,
                      SharedClasses(txn->buffer->read_set(),
                                    tj->buffer->write_set()) |
                          SharedClasses(txn->buffer->write_set(),
                                        tj->buffer->read_set()));
      c_restarts_->Increment();
      ++txn->restart_count;
      tj->restart_list.push_back(txn);
      return;
    }
    if (overlap == Overlap::kWriteWrite) apply_after.push_back(tj);
  }
  // Lines 15-22: conflicts with completed predecessors that completed after
  // this transaction started (concurrent ones), read off the per-key
  // completion stamps. Restart immediately.
  c_conflict_checks_->Increment();
  if (const unsigned stale = StaleClassesLocked(*txn); stale != 0) {
    c_conflicts_->Increment();
    CountKeyClasses(kConflictEvent, stale);
    RestartLocked(txn);
    return;
  }
  // No conflict explains an execution failure, so it is either a transient
  // condition (retry by restarting) or a real one. Unavailable = transient
  // store error; Aborted = a B-link traversal gave up on the view it saw (a
  // missing node, a view stitched from two tree shapes, or a parent level
  // the view lacks; DESIGN.md §14) — both resolve against the fresher
  // snapshot a restart re-executes on.
  if (!txn->execution_status.ok()) {
    if ((txn->execution_status.IsUnavailable() ||
         txn->execution_status.IsAborted()) &&
        txn->restarts() < options_.max_execution_retries) {
      RestartLocked(txn);
      return;
    }
    if (txn->read_only()) {
      // A failed read-only transaction (bad query, planner error, ...) has
      // no writes and therefore cannot leave the replica inconsistent: fail
      // just this transaction, keep its sequence slot as a no-op, and let
      // the pipeline continue.
      txn->state = TxnState::kCompleted;
      txn->complete_time = clock_.Tick();
      expected_seq_ = txn->seq() + 1;
      active_.erase(txn->seq());
      c_completed_->Increment();
      txn->Finish(txn->execution_status);
      cv_.NotifyAll();
      return;
    }
    // A failed *update* transaction is fatal: applying successors without it
    // would violate the execution-defined order.
    FailLocked(Status(txn->execution_status.code(),
                      "transaction " + std::to_string(txn->seq()) +
                          " failed: " + txn->execution_status.message()));
    return;
  }
  // Lines 23-25: commit.
  txn->state = TxnState::kCommitted;
  txn->commit_time = clock_.Tick();
  committed_[txn->seq()] = txn;
  expected_seq_ = txn->seq() + 1;
  c_committed_->Increment();
  txn->commit_wall_micros = NowMicros();
  if (!txn->read_only()) {
    // Sink hand-off -> commit decision; the wait in the CommitReqPQ for the
    // controller is the queue share, (re-)execution the service share.
    hops_.RecordHop(obs::Stage::kCommitEval, txn->trace, txn->lsn,
                    txn->submit_micros, txn->commit_wall_micros,
                    txn->commit_wall_micros - txn->enqueue_micros);
  }
  // The apply waits for every W/W predecessor, so each key's writes reach
  // the store in commit order (DESIGN.md §3).
  for (const TxnPtr& tj : apply_after) {
    tj->apply_waiters.push_back(txn);
    CountKeyClasses(kApplyOrderEvent, SharedClasses(txn->buffer->write_set(),
                                                    tj->buffer->write_set()));
  }
  c_apply_orders_->Increment(static_cast<int64_t>(apply_after.size()));
  txn->pending_apply_preds = static_cast<int>(apply_after.size());
  if (txn->pending_apply_preds == 0) SubmitApplyLocked(txn);
}

void TransactionManager::ApplyTask(const TxnPtr& txn) {
  // Publish the buffered write set as one MultiWrite, tolerating transient
  // store failures (re-applying is idempotent: PUT/DELETE are absolute).
  const int64_t apply_start = NowMicros();
  Status status = Status::OK();
  if (txn->buffer->WriteCount() > 0) {
    for (int attempt = 0;; ++attempt) {
      status = txn->buffer->ApplyTo(store_);
      if (status.ok() || !status.IsUnavailable()) break;
      if (attempt >= options_.max_apply_retries) {
        TXREP_LOG(kWarn) << "apply of transaction " << txn->seq()
                         << " exhausted " << options_.max_apply_retries
                         << " retries: " << status.ToString();
        break;
      }
      c_apply_retries_->Increment();
      SleepForMicros(options_.apply_retry_backoff_micros);
    }
  }
  if (status.ok() && !txn->read_only()) {
    // Commit decision -> replica-visible; waiting for a bottom-pool thread
    // is the queue share. commit_wall_micros was stamped before this task
    // was submitted, so reading it lock-free here is ordered. Both hops are
    // recorded before the transaction leaves active_, so a WaitIdle() caller
    // sees them.
    const int64_t apply_done = NowMicros();
    hops_.RecordHop(obs::Stage::kApply, txn->trace, txn->lsn,
                    txn->commit_wall_micros, apply_done,
                    apply_start - txn->commit_wall_micros);
    if (txn->db_commit_micros != 0) {
      hops_.RecordHop(obs::Stage::kE2e, txn->trace, txn->lsn,
                      txn->db_commit_micros, apply_done);
    }
  }

  std::vector<TxnPtr> to_restart;
  bool run_gc = false;
  {
    check::MutexLock lock(&mu_);
    if (!status.ok()) {
      FailLocked(Status(status.code(), "apply of transaction " +
                                           std::to_string(txn->seq()) +
                                           " failed: " + status.message()));
      return;
    }
    txn->complete_time = clock_.Tick();
    txn->state = TxnState::kCompleted;
    committed_.erase(txn->seq());
    active_.erase(txn->seq());
    // Stamps only grow: completions tick the clock under mu_.
    for (const std::string& key : txn->buffer->write_set()) {
      last_write_complete_[key] = txn->complete_time;
    }
    for (const std::string& key : txn->buffer->read_set()) {
      last_read_complete_[key] = txn->complete_time;
    }
    // Bottom-pool completions land out of order, so track the max; it equals
    // the applied-prefix end whenever active_ is empty (idle / quiesced).
    if (txn->lsn > last_applied_lsn_) last_applied_lsn_ = txn->lsn;
    c_completed_->Increment();
    h_txn_restarts_->Record(txn->restart_count);
    to_restart = std::move(txn->restart_list);
    txn->restart_list.clear();
    for (const TxnPtr& parked : to_restart) {
      parked->state = TxnState::kActive;
      top_pool_->SubmitUrgent([this, parked] { ExecuteTask(parked); });
    }
    for (const TxnPtr& waiter : txn->apply_waiters) {
      if (--waiter->pending_apply_preds == 0) SubmitApplyLocked(waiter);
    }
    std::vector<TxnPtr>().swap(txn->apply_waiters);
    if (++completions_since_gc_ > options_.completed_gc_threshold &&
        !gc_scheduled_) {
      gc_scheduled_ = true;
      completions_since_gc_ = 0;
      run_gc = true;
    }
    DebugCheckInvariantsLocked();
    cv_.NotifyAll();
  }
  txn->Finish(Status::OK());
  // The TM is done with the buffer, but a caller may hold the handle: free
  // its values and keep the key sets, after Finish so waiters do not pay.
  txn->buffer->ReleaseValues();
  if (run_gc) {
    gc_pool_->Submit([this] { GcTask(); });
  }
}

void TransactionManager::GcTask() {
  // Algorithm 2 over stamps: a stamp no started ACTIVE transaction began
  // before is never compared again (a later start is later than the stamp;
  // a committed transaction is not evaluated again).
  check::MutexLock lock(&mu_);
  c_gc_runs_->Increment();
  uint64_t oldest_start = std::numeric_limits<uint64_t>::max();
  for (const auto& [seq, txn] : active_) {
    // start_time == 0: not started yet; its stamp will be later than every
    // stamp that exists now (it is drawn under mu_).
    const uint64_t start = txn->start_time;
    if (txn->state == TxnState::kActive && start != 0 &&
        start < oldest_start) {
      oldest_start = start;
    }
  }
  auto unneeded = [oldest_start](const auto& entry) {
    return entry.second <= oldest_start;
  };
  const size_t removed = std::erase_if(last_write_complete_, unneeded) +
                         std::erase_if(last_read_complete_, unneeded);
  c_gc_removed_->Increment(static_cast<int64_t>(removed));
  gc_scheduled_ = false;
}

void TransactionManager::FailLocked(const Status& status) {
  health_ = status;
  TXREP_LOG(kError) << "transaction manager failed: " << status.ToString();
  // Finish everything still in flight so waiters unblock.
  for (auto& [seq, txn] : active_) txn->Finish(status);
  active_.clear();
  cv_.NotifyAll();
}

Status TransactionManager::WaitIdle() {
  // Idle means: every submitted transaction completed (active empty) and the
  // pools drained. The controller can only stall while a committed
  // transaction is applying, so waiting on active_ is sufficient.
  check::MutexLock lock(&mu_);
  while (!active_.empty() && health_.ok()) cv_.Wait();
  return health_;
}

Status TransactionManager::QuiesceBarrier(
    const std::function<Status()>& fn) {
  {
    check::MutexLock lock(&mu_);
    // Serialize barriers: only one drain owns quiescing_ at a time.
    while (quiescing_ && health_.ok()) cv_.Wait();
    if (!health_.ok()) return health_;
    quiescing_ = true;
    while (!active_.empty() && health_.ok()) cv_.Wait();
    if (!health_.ok()) {
      quiescing_ = false;
      cv_.NotifyAll();
      return health_;
    }
  }
  // Quiescent: nothing in flight, and Submit* parks on quiescing_. The
  // callback (checkpoint I/O) runs outside the controller mutex.
  Status status = fn();
  {
    check::MutexLock lock(&mu_);
    quiescing_ = false;
    cv_.NotifyAll();
  }
  return status;
}

uint64_t TransactionManager::last_applied_lsn() const {
  check::MutexLock lock(&mu_);
  return last_applied_lsn_;
}

Status TransactionManager::health() const {
  check::MutexLock lock(&mu_);
  return health_;
}

TmStats TransactionManager::stats() const {
  // Registry-backed: each field reads its counter, so stats() and the
  // exported metrics are the same numbers. Exact once writers quiesced
  // (e.g. after WaitIdle()).
  TmStats stats;
  stats.submitted = c_submitted_->Value();
  stats.read_only_submitted = c_read_only_submitted_->Value();
  stats.committed = c_committed_->Value();
  stats.completed = c_completed_->Value();
  stats.conflicts = c_conflicts_->Value();
  stats.restarts = c_restarts_->Value();
  stats.apply_retries = c_apply_retries_->Value();
  stats.gc_runs = c_gc_runs_->Value();
  stats.gc_removed = c_gc_removed_->Value();
  stats.conflict_checks = c_conflict_checks_->Value();
  stats.apply_orders = c_apply_orders_->Value();
  return stats;
}

size_t TransactionManager::CompletedKeyCount() const {
  check::MutexLock lock(&mu_);
  return last_write_complete_.size() + last_read_complete_.size();
}

Status TransactionManager::CheckInvariants() const {
  check::MutexLock lock(&mu_);
  return CheckInvariantsLocked();
}

Status TransactionManager::CheckInvariantsLocked() const {
  auto violation = [](const std::string& what) {
    return Status::Internal("TM invariant violated: " + what);
  };
  if (expected_seq_ > next_seq_) {
    return violation("expected_seq " + std::to_string(expected_seq_) +
                     " ran past next_seq " + std::to_string(next_seq_));
  }
  // A commit request at the head of the PQ must never be from the past:
  // sequences below expected_seq_ were already evaluated and committed.
  if (!commit_req_pq_.empty() &&
      commit_req_pq_.top()->seq() < expected_seq_) {
    return violation("commit request for already-evaluated seq " +
                     std::to_string(commit_req_pq_.top()->seq()) +
                     " (expected_seq " + std::to_string(expected_seq_) + ")");
  }
  for (const auto& [seq, txn] : committed_) {
    if (txn->state != TxnState::kCommitted) {
      return violation("committed-set txn " + std::to_string(seq) +
                       " in state " + TxnStateName(txn->state));
    }
    if (seq >= expected_seq_) {
      return violation("committed txn " + std::to_string(seq) +
                       " >= expected_seq " + std::to_string(expected_seq_));
    }
    if (txn->commit_time == 0) {
      return violation("committed txn " + std::to_string(seq) +
                       " missing commit stamp");
    }
    if (txn->buffer == nullptr) {
      return violation("committed txn " + std::to_string(seq) +
                       " has no buffer to apply");
    }
    if (active_.find(seq) == active_.end()) {
      return violation("committed txn " + std::to_string(seq) +
                       " not tracked as active");
    }
  }
  // Algorithm 1 commits strictly in sequence order, so commit stamps must be
  // monotone in seq across everything committed and not yet applied — the
  // in-flight shadow of the execution-defined-order guarantee.
  uint64_t prev_commit = 0;
  uint64_t prev_seq = 0;
  for (const auto& [seq, txn] : committed_) {
    if (txn->commit_time <= prev_commit) {
      return violation("commit stamps out of order: txn " +
                       std::to_string(seq) + " committed at " +
                       std::to_string(txn->commit_time) + " <= txn " +
                       std::to_string(prev_seq) + " at " +
                       std::to_string(prev_commit));
    }
    prev_commit = txn->commit_time;
    prev_seq = seq;
  }
  // Apply ordering: each waiter is a later committed transaction, and a
  // committed transaction waits on exactly as many predecessors as list it.
  std::map<uint64_t, int> listed;
  for (const auto& [seq, txn] : committed_) {
    for (const TxnPtr& waiter : txn->apply_waiters) {
      if (waiter->seq() <= seq || !committed_.contains(waiter->seq())) {
        return violation("txn " + std::to_string(seq) +
                         " lists apply waiter " +
                         std::to_string(waiter->seq()) +
                         " that is not a later committed txn");
      }
      ++listed[waiter->seq()];
    }
  }
  for (const auto& [seq, txn] : committed_) {
    const auto it = listed.find(seq);
    const int waiting_on = it == listed.end() ? 0 : it->second;
    if (waiting_on != txn->pending_apply_preds) {
      return violation("committed txn " + std::to_string(seq) + " has " +
                       std::to_string(txn->pending_apply_preds) +
                       " pending apply predecessors but is listed by " +
                       std::to_string(waiting_on));
    }
  }
  return Status::OK();
}

void TransactionManager::DebugCheckInvariantsLocked() const {
#ifdef TXREP_DEBUG_CHECKS
  Status status = CheckInvariantsLocked();
  if (!status.ok()) {
    TXREP_LOG(kError) << status.ToString();
    std::abort();
  }
#endif
}

}  // namespace txrep::core
