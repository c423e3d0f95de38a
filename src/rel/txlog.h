#ifndef TXREP_REL_TXLOG_H_
#define TXREP_REL_TXLOG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "check/mutex.h"
#include "obs/metrics.h"
#include "rel/value.h"
#include "trace/context.h"

namespace txrep::trace {
class Tracer;
}  // namespace txrep::trace

namespace txrep::rel {

/// Kind of a logged write operation.
enum class LogOpType : uint8_t { kInsert = 0, kUpdate = 1, kDelete = 2 };

/// Returns "INSERT", "UPDATE" or "DELETE".
const char* LogOpTypeName(LogOpType type);

/// One logical write in the transaction log, in *after-image* form: the log
/// carries deterministic values, never expressions, so replay needs no
/// re-evaluation (paper §3: "the transaction log only includes write
/// statements").
struct LogOp {
  LogOpType type = LogOpType::kInsert;
  std::string table;
  Value pk;
  Row after;  // Full row after the write; empty for kDelete.

  std::string DebugString() const;
};

bool operator==(const LogOp& a, const LogOp& b);

/// One committed transaction's writes, stamped with its commit LSN. LSNs are
/// dense (1, 2, 3, ...) and define the execution-defined order the replica
/// must reproduce.
struct LogTransaction {
  uint64_t lsn = 0;
  /// Commit instant on the database side (steady-clock micros); the replica
  /// side uses it to measure replication lag / staleness.
  int64_t commit_micros = 0;
  /// Trace identity minted at commit (zero / unsampled unless a tracer is
  /// attached); travels with the record across the wire so every hop
  /// attributes its spans to the same transaction.
  trace::TraceContext trace;
  std::vector<LogOp> ops;
};

/// Append-only, commit-ordered transaction log. Thread-safe. The publisher
/// agent tails it with ReadSince() and parks in WaitForAppend() while it has
/// nothing new to read.
class TxLog {
 public:
  TxLog() = default;

  TxLog(const TxLog&) = delete;
  TxLog& operator=(const TxLog&) = delete;

  /// Appends the ops of one committed transaction; returns its LSN.
  /// Transactions with no write ops are not logged (returns 0).
  uint64_t Append(std::vector<LogOp> ops);

  /// Returns up to `max_transactions` transactions with lsn > `after_lsn`
  /// in LSN order. `max_transactions` == 0 means no limit.
  std::vector<LogTransaction> ReadSince(uint64_t after_lsn,
                                        size_t max_transactions = 0) const;

  /// LSN of the most recently appended transaction (0 when empty).
  uint64_t LastLsn() const;

  /// Blocks until a transaction with lsn > `after_lsn` has been appended
  /// (truncated or not) or `running` reads false, whichever comes first.
  /// Returns true in the first case. `running` is read under the log mutex,
  /// so a caller that clears it and then calls WakeWaiters() cannot lose the
  /// wakeup.
  bool WaitForAppend(uint64_t after_lsn, const std::atomic<bool>& running);

  /// Wakes every WaitForAppend() caller so it re-reads its `running` flag.
  void WakeWaiters();

  /// Number of logged transactions.
  size_t size() const;

  /// Drops transactions with lsn <= `up_to_lsn` (log truncation after the
  /// replica acknowledged them). Reads of truncated ranges return nothing.
  void TruncateUpTo(uint64_t up_to_lsn);

  /// Publishes append/size/truncation metrics into `metrics` (must outlive
  /// the log).
  void EnableMetrics(obs::MetricsRegistry* metrics);

  /// Mints a TraceContext for every subsequent Append() via `tracer` (must
  /// outlive the log; null disables). This is the trace origin: the sampling
  /// decision is taken here, at DB commit, and carried downstream.
  void EnableTracing(trace::Tracer* tracer);

 private:
  mutable check::Mutex mu_{"rel.txlog"};
  /// entries_[i].lsn strictly increasing.
  std::vector<LogTransaction> entries_ TXREP_GUARDED_BY(mu_);
  uint64_t next_lsn_ TXREP_GUARDED_BY(mu_) = 1;
  /// Signalled by Append() (only while `waiters_` > 0) and WakeWaiters().
  check::CondVar append_cv_{&mu_};
  int waiters_ TXREP_GUARDED_BY(mu_) = 0;

  trace::Tracer* tracer_ TXREP_GUARDED_BY(mu_) = nullptr;

  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_appended_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_truncations_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_truncated_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Gauge* g_size_ = nullptr;
};

}  // namespace txrep::rel

#endif  // TXREP_REL_TXLOG_H_
