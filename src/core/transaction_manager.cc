#include "core/transaction_manager.h"


#include <cstdlib>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/names.h"
#include "trace/slo.h"
#include "trace/tracer.h"

namespace txrep::core {

TransactionManager::TransactionManager(kv::KvStore* store,
                                       const qt::QueryTranslator* translator,
                                       TmOptions options,
                                       obs::MetricsRegistry* metrics,
                                       trace::Tracer* tracer,
                                       trace::SloWatchdog* slo)
    : store_(store),
      translator_(translator),
      options_(options),
      tracer_(tracer),
      slo_(slo) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
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
  h_stage_execute_ = metrics->GetHistogram(obs::kStageLatency,
                                           {{"stage", obs::kStageExecute}});
  h_stage_commit_eval_ = metrics->GetHistogram(
      obs::kStageLatency, {{"stage", obs::kStageCommitEval}});
  h_stage_apply_ =
      metrics->GetHistogram(obs::kStageLatency, {{"stage", obs::kStageApply}});
  h_stage_e2e_ =
      metrics->GetHistogram(obs::kStageLatency, {{"stage", obs::kStageE2e}});
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
  }
  // Stamp the start strictly before the first read (Algorithm 1 relies on
  // start/complete ordering to decide which completed writers might have
  // been missed).
  txn->start_time = clock_.Tick();
  const int64_t exec_start = NowMicros();
  auto buffer = std::make_unique<TxnBuffer>(store_);
  Status status = txn->body()(buffer.get());
  h_stage_execute_->Record(NowMicros() - exec_start);
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

bool TransactionManager::Conflicts(const Transaction& a, const Transaction& b) {
  const auto& a_reads = a.buffer->read_set();
  const auto& a_writes = a.buffer->write_set();
  const auto& b_reads = b.buffer->read_set();
  const auto& b_writes = b.buffer->write_set();

  auto intersects = [](const std::unordered_set<std::string>& x,
                       const std::unordered_set<std::string>& y) {
    const auto& small = x.size() <= y.size() ? x : y;
    const auto& large = x.size() <= y.size() ? y : x;
    for (const std::string& key : small) {
      if (large.contains(key)) return true;
    }
    return false;
  };
  // R/W, W/R and W/W conflicts (paper §5).
  return intersects(a_reads, b_writes) || intersects(a_writes, b_writes) ||
         intersects(a_writes, b_reads);
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
  // expected sequence stays put — the controller stalls, as in the paper.
  for (auto& [seq, tj] : committed_) {
    c_conflict_checks_->Increment();
    if (Conflicts(*txn, *tj)) {
      c_conflicts_->Increment();
      c_restarts_->Increment();
      ++txn->restart_count;
      tj->restart_list.push_back(txn);
      return;
    }
  }
  // Lines 15-22: conflicts with completed predecessors that completed after
  // this transaction started (concurrent ones). Restart immediately.
  for (auto& [seq, tj] : completed_) {
    if (txn->start_time >= tj->complete_time) continue;
    c_conflict_checks_->Increment();
    if (Conflicts(*txn, *tj)) {
      c_conflicts_->Increment();
      RestartLocked(txn);
      return;
    }
  }
  // No conflict explains an execution failure, so it is either a transient
  // condition (retry by restarting) or a real one. Unavailable = transient
  // store error; Aborted = an optimistic index traversal hit a torn or
  // still-in-flight structure (B-link version-latch protocol) — both resolve
  // against the fresher snapshot a restart re-executes on.
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
  const int64_t commit_wall = NowMicros();
  txn->commit_wall_micros = commit_wall;
  if (txn->enqueue_micros != 0) {
    h_stage_commit_eval_->Record(commit_wall - txn->enqueue_micros);
  }
  if (tracer_ != nullptr && txn->trace.sampled) {
    // Sink hand-off -> commit decision; the wait in the CommitReqPQ for the
    // controller is the queue share, (re-)execution the service share.
    tracer_->RecordSpan(txn->trace, txn->lsn, trace::SpanStage::kCommitEval,
                        txn->submit_micros, commit_wall,
                        txn->enqueue_micros != 0
                            ? commit_wall - txn->enqueue_micros
                            : 0);
  }
  bottom_pool_->Submit([this, txn] { ApplyTask(txn); });
  g_bottom_backlog_->Set(static_cast<int64_t>(bottom_pool_->QueueDepth()));
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
  const int64_t apply_done = NowMicros();
  h_stage_apply_->Record(apply_done - apply_start);
  if (status.ok() && tracer_ != nullptr && txn->trace.sampled) {
    // Commit decision -> replica-visible; waiting for a bottom-pool thread
    // is the queue share. commit_wall_micros was stamped before this task
    // was submitted, so reading it lock-free here is ordered.
    const int64_t commit_wall = txn->commit_wall_micros != 0
                                    ? txn->commit_wall_micros
                                    : apply_start;
    tracer_->RecordSpan(txn->trace, txn->lsn, trace::SpanStage::kApply,
                        commit_wall, apply_done, apply_start - commit_wall);
    if (txn->db_commit_micros != 0) {
      tracer_->RecordSpan(txn->trace, txn->lsn, trace::SpanStage::kE2e,
                          txn->db_commit_micros, apply_done, 0);
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
    completed_[txn->seq()] = txn;
    active_.erase(txn->seq());
    // Bottom-pool completions land out of order, so track the max; it equals
    // the applied-prefix end whenever active_ is empty (idle / quiesced).
    if (txn->lsn > last_applied_lsn_) last_applied_lsn_ = txn->lsn;
    c_completed_->Increment();
    h_txn_restarts_->Record(txn->restart_count);
    if (txn->db_commit_micros != 0) {
      const int64_t lag = NowMicros() - txn->db_commit_micros;
      h_stage_e2e_->Record(lag);
      if (slo_ != nullptr) slo_->ObserveLag(lag);
    }
    to_restart = std::move(txn->restart_list);
    txn->restart_list.clear();
    for (const TxnPtr& parked : to_restart) {
      parked->state = TxnState::kActive;
      top_pool_->SubmitUrgent([this, parked] { ExecuteTask(parked); });
    }
    if (completed_.size() > options_.completed_gc_threshold && !gc_scheduled_) {
      gc_scheduled_ = true;
      run_gc = true;
    }
    DebugCheckInvariantsLocked();
    cv_.NotifyAll();
  }
  txn->Finish(Status::OK());
  if (run_gc) {
    gc_pool_->Submit([this] { GcTask(); });
  }
}

void TransactionManager::GcTask() {
  // Algorithm 2: remove every completed transaction no active transaction
  // could still conflict-test against (no active T_j started before its
  // completion).
  check::MutexLock lock(&mu_);
  c_gc_runs_->Increment();
  for (auto it = completed_.begin(); it != completed_.end();) {
    bool needed = false;
    for (const auto& [seq, active] : active_) {
      // start_time == 0 means "not yet started". Such a transaction will be
      // stamped from the monotonic clock *after* this entry's completion
      // stamp, so its line-16 test `start < complete` can never hold against
      // this entry — it does not need it.
      const uint64_t start = active->start_time;
      if (start != 0 && start < it->second->complete_time) {
        needed = true;
        break;
      }
    }
    if (needed) {
      ++it;
    } else {
      it = completed_.erase(it);
      c_gc_removed_->Increment();
    }
  }
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
  return stats;
}

size_t TransactionManager::CompletedListSize() const {
  check::MutexLock lock(&mu_);
  return completed_.size();
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
  // monotone in seq across everything that passed evaluation — this is the
  // in-flight shadow of the execution-defined-order guarantee.
  uint64_t prev_commit = 0;
  uint64_t prev_seq = 0;
  auto check_commit_order = [&](uint64_t seq, const TxnPtr& txn) {
    if (txn->commit_time <= prev_commit) {
      return violation("commit stamps out of order: txn " +
                       std::to_string(seq) + " committed at " +
                       std::to_string(txn->commit_time) + " <= txn " +
                       std::to_string(prev_seq) + " at " +
                       std::to_string(prev_commit));
    }
    prev_commit = txn->commit_time;
    prev_seq = seq;
    return Status::OK();
  };
  for (const auto& [seq, txn] : completed_) {
    if (txn->state != TxnState::kCompleted) {
      return violation("completed-set txn " + std::to_string(seq) +
                       " in state " + TxnStateName(txn->state));
    }
    if (txn->complete_time <= txn->commit_time) {
      return violation("completed txn " + std::to_string(seq) +
                       " completed before committing");
    }
    if (active_.find(seq) != active_.end()) {
      return violation("completed txn " + std::to_string(seq) +
                       " still tracked as active");
    }
    Status order = check_commit_order(seq, txn);
    if (!order.ok()) return order;
  }
  // completed_ and committed_ are disjoint seq ranges? Not necessarily
  // contiguous (GC trims the middle), but commit order must continue to hold
  // across the boundary: every committed (unapplied) txn committed after
  // every completed one still on the list with a smaller seq.
  for (const auto& [seq, txn] : committed_) {
    if (seq > prev_seq) {
      Status order = check_commit_order(seq, txn);
      if (!order.ok()) return order;
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
