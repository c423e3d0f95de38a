#ifndef TXREP_CORE_TICKET_APPLIER_H_
#define TXREP_CORE_TICKET_APPLIER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "check/mutex.h"

#include "common/status.h"
#include "common/thread_pool.h"
#include "kv/kv_store.h"
#include "qt/query_translator.h"
#include "rel/txlog.h"
#include "trace/hop_recorder.h"

namespace txrep::core {

/// Tuning knobs for the ticket-based applier.
struct TicketApplierOptions {
  /// Worker threads executing transactions once their locks are granted.
  int threads = 20;
};

/// Counters exposed by the ticket applier.
struct TicketApplierStats {
  int64_t submitted = 0;
  int64_t completed = 0;
  /// Transactions that had to block waiting for a smaller ticket.
  int64_t lock_waits = 0;
};

/// The remote-backup replay scheme of Polyzois & García-Molina (the paper's
/// §2 comparator): transactions carry *tickets* in log order, and a
/// two-phase-locking protocol grants each lock strictly in ticket order —
/// "no lock is granted to a transaction unless all the transactions with the
/// smaller ticket that requested the same lock have been granted".
///
/// Granularity: locks are taken on *tables* (the statically pre-declarable
/// conflict classes of a logged transaction — row-level sets would require
/// the very translation reads whose ordering is at stake). Transactions over
/// disjoint table sets replay concurrently; transactions sharing any table
/// serialize in ticket order, which — since every replica key embeds its
/// table — reproduces the execution-defined order exactly.
///
/// Contrast with the TxRep TM (optimistic, restart-based): ticket 2PL never
/// restarts but blocks pessimistically, and it gets no intra-table
/// concurrency at all. The `bench/baseline_comparison` harness quantifies
/// the difference.
class TicketApplier {
 public:
  /// `store` and `translator` must outlive the applier. `tracer` (optional,
  /// same lifetime rule) receives the apply / e2e hops of sampled
  /// transactions (lock waiting is the apply queue share). Each transaction
  /// executes into a private TxnBuffer under its table locks and its
  /// coalesced write set ships as one MultiWrite before the locks are
  /// released.
  TicketApplier(kv::KvStore* store, const qt::QueryTranslator* translator,
                TicketApplierOptions options = {},
                trace::Tracer* tracer = nullptr);

  ~TicketApplier();

  TicketApplier(const TicketApplier&) = delete;
  TicketApplier& operator=(const TicketApplier&) = delete;

  /// Enqueues one logged transaction; tickets are assigned in call order
  /// (call in log order). Returns immediately.
  void Submit(rel::LogTransaction txn);

  /// Blocks until everything submitted has been applied; returns the sticky
  /// failure status.
  Status WaitIdle();

  TicketApplierStats stats() const;

 private:
  /// FIFO-by-ticket table lock manager. A ticket may hold its tables only
  /// when it is the smallest registered ticket on every one of them.
  class LockManager {
   public:
    /// Declares interest (called in ticket order, at submission).
    void Register(uint64_t ticket, const std::vector<std::string>& tables);

    /// Blocks until `ticket` is first in line on all `tables`. Returns true
    /// if it had to wait.
    bool AcquireAll(uint64_t ticket, const std::vector<std::string>& tables);

    /// Releases and wakes waiters.
    void Release(uint64_t ticket, const std::vector<std::string>& tables);

   private:
    bool GrantedLocked(uint64_t ticket,
                       const std::vector<std::string>& tables) const
        TXREP_REQUIRES(mu_);

    check::Mutex mu_{"ticket.locks"};
    check::CondVar cv_{&mu_};
    std::map<std::string, std::set<uint64_t>> queues_ TXREP_GUARDED_BY(mu_);
  };

  void ApplyTask(uint64_t ticket,
                 std::shared_ptr<rel::LogTransaction> txn,
                 std::shared_ptr<std::vector<std::string>> tables);

  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  kv::KvStore* store_;                     // Not owned.
  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  const qt::QueryTranslator* translator_;  // Not owned.
  const trace::HopRecorder hops_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<ThreadPool> pool_;
  // analyze: lock-free(LockManager owns its own (keyed) mutexes)
  LockManager locks_;

  mutable check::Mutex mu_{"ticket.mu"};
  check::CondVar idle_cv_{&mu_};
  uint64_t next_ticket_ TXREP_GUARDED_BY(mu_) = 1;
  int64_t in_flight_ TXREP_GUARDED_BY(mu_) = 0;
  Status health_ TXREP_GUARDED_BY(mu_) = Status::OK();
  TicketApplierStats stats_ TXREP_GUARDED_BY(mu_);
};

}  // namespace txrep::core

#endif  // TXREP_CORE_TICKET_APPLIER_H_
