#include "core/ticket_applier.h"

#include <algorithm>

#include "common/clock.h"
#include "core/txn_buffer.h"

namespace txrep::core {

void TicketApplier::LockManager::Register(
    uint64_t ticket, const std::vector<std::string>& tables) {
  check::MutexLock lock(&mu_);
  for (const std::string& table : tables) {
    queues_[table].insert(ticket);
  }
}

bool TicketApplier::LockManager::GrantedLocked(
    uint64_t ticket, const std::vector<std::string>& tables) const {
  for (const std::string& table : tables) {
    auto it = queues_.find(table);
    if (it == queues_.end() || it->second.empty()) continue;  // Defensive.
    if (*it->second.begin() != ticket) return false;
  }
  return true;
}

bool TicketApplier::LockManager::AcquireAll(
    uint64_t ticket, const std::vector<std::string>& tables) {
  check::MutexLock lock(&mu_);
  if (GrantedLocked(ticket, tables)) return false;
  while (!GrantedLocked(ticket, tables)) cv_.Wait();
  return true;
}

void TicketApplier::LockManager::Release(
    uint64_t ticket, const std::vector<std::string>& tables) {
  check::MutexLock lock(&mu_);
  for (const std::string& table : tables) {
    auto it = queues_.find(table);
    if (it == queues_.end()) continue;
    it->second.erase(ticket);
    if (it->second.empty()) queues_.erase(it);
  }
  cv_.NotifyAll();
}

TicketApplier::TicketApplier(kv::KvStore* store,
                             const qt::QueryTranslator* translator,
                             TicketApplierOptions options,
                             trace::Tracer* tracer)
    : store_(store), translator_(translator), hops_(nullptr, tracer) {
  pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(std::max(1, options.threads)), "ticket-applier");
}

TicketApplier::~TicketApplier() {
  // analyze: discard(destructor drain; nothing to return a timeout to)
  (void)WaitIdle();
  pool_->Shutdown();
}

void TicketApplier::Submit(rel::LogTransaction txn) {
  auto tables = std::make_shared<std::vector<std::string>>();
  for (const rel::LogOp& op : txn.ops) {
    if (std::find(tables->begin(), tables->end(), op.table) == tables->end()) {
      tables->push_back(op.table);
    }
  }
  uint64_t ticket;
  {
    check::MutexLock lock(&mu_);
    ticket = next_ticket_++;
    ++in_flight_;
    ++stats_.submitted;
  }
  // Interest must be declared in ticket order — here, under submission
  // order — so later tickets always queue behind this one.
  locks_.Register(ticket, *tables);
  auto payload = std::make_shared<rel::LogTransaction>(std::move(txn));
  pool_->Submit([this, ticket, payload, tables] {
    ApplyTask(ticket, payload, tables);
  });
}

void TicketApplier::ApplyTask(uint64_t ticket,
                              std::shared_ptr<rel::LogTransaction> txn,
                              std::shared_ptr<std::vector<std::string>> tables) {
  const int64_t apply_start = NowMicros();
  const bool waited = locks_.AcquireAll(ticket, *tables);
  const int64_t locks_granted = NowMicros();
  Status status;
  {
    check::MutexLock lock(&mu_);
    status = health_;
  }
  if (status.ok()) {
    // Execute into a private buffer under the table locks, then publish the
    // coalesced write set as one MultiWrite. The locks are still held across
    // the publish, so ticket-order serialization per table is unchanged.
    TxnBuffer buffer(store_);
    status = translator_->ApplyTransaction(&buffer, *txn);
    if (status.ok()) {
      status = buffer.ApplyTo(store_);
    }
  }
  locks_.Release(ticket, *tables);
  if (status.ok()) {
    const int64_t now = NowMicros();
    // Ticket-2PL has no commit evaluation: waiting for in-order lock grants
    // is the apply queue share.
    hops_.RecordHop(obs::Stage::kApply, txn->trace, txn->lsn, apply_start,
                    now, locks_granted - apply_start);
    if (txn->commit_micros != 0) {
      hops_.RecordHop(obs::Stage::kE2e, txn->trace, txn->lsn,
                      txn->commit_micros, now);
    }
  }
  check::MutexLock lock(&mu_);
  if (waited) ++stats_.lock_waits;
  if (!status.ok() && health_.ok()) {
    health_ = status;
  }
  if (status.ok()) ++stats_.completed;
  if (--in_flight_ == 0) idle_cv_.NotifyAll();
}

Status TicketApplier::WaitIdle() {
  check::MutexLock lock(&mu_);
  while (in_flight_ != 0) idle_cv_.Wait();
  return health_;
}

TicketApplierStats TicketApplier::stats() const {
  check::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace txrep::core
