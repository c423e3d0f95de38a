#include "rel/txlog.h"

#include <algorithm>

#include "common/clock.h"
#include "obs/names.h"
#include "trace/tracer.h"

namespace txrep::rel {

const char* LogOpTypeName(LogOpType type) {
  switch (type) {
    case LogOpType::kInsert:
      return "INSERT";
    case LogOpType::kUpdate:
      return "UPDATE";
    case LogOpType::kDelete:
      return "DELETE";
  }
  return "?";
}

std::string LogOp::DebugString() const {
  std::string out = LogOpTypeName(type);
  out += " ";
  out += table;
  out += " pk=";
  out += pk.ToString();
  if (type != LogOpType::kDelete) {
    out += " after=";
    out += RowToString(after);
  }
  return out;
}

bool operator==(const LogOp& a, const LogOp& b) {
  return a.type == b.type && a.table == b.table && a.pk == b.pk &&
         a.after == b.after;
}

void TxLog::EnableMetrics(obs::MetricsRegistry* metrics) {
  check::MutexLock lock(&mu_);
  c_appended_ = metrics->GetCounter(obs::kLogAppended);
  c_truncations_ = metrics->GetCounter(obs::kLogTruncations);
  c_truncated_ = metrics->GetCounter(obs::kLogTruncated);
  g_size_ = metrics->GetGauge(obs::kLogSize);
}

void TxLog::EnableTracing(trace::Tracer* tracer) {
  check::MutexLock lock(&mu_);
  tracer_ = tracer;
}

uint64_t TxLog::Append(std::vector<LogOp> ops) {
  if (ops.empty()) return 0;
  uint64_t lsn = 0;
  bool wake = false;
  {
    check::MutexLock lock(&mu_);
    lsn = next_lsn_++;
    LogTransaction entry;
    entry.lsn = lsn;
    entry.commit_micros = NowMicros();
    if (tracer_ != nullptr) entry.trace = tracer_->Mint(entry.lsn);
    entry.ops = std::move(ops);
    entries_.push_back(std::move(entry));
    if (c_appended_ != nullptr) c_appended_->Increment();
    if (g_size_ != nullptr) {
      g_size_->Set(static_cast<int64_t>(entries_.size()));
    }
    wake = waiters_ > 0;
  }
  // Notify outside the lock so the woken pump does not block on mu_, and
  // only when one is parked: a commit nobody waits for makes no syscall.
  // No wakeup is lost: a waiter counts itself under mu_ before it parks.
  if (wake) append_cv_.NotifyAll();
  return lsn;
}

std::vector<LogTransaction> TxLog::ReadSince(uint64_t after_lsn,
                                             size_t max_transactions) const {
  check::MutexLock lock(&mu_);
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), after_lsn,
      [](uint64_t lsn, const LogTransaction& t) { return lsn < t.lsn; });
  std::vector<LogTransaction> out;
  for (; it != entries_.end(); ++it) {
    if (max_transactions != 0 && out.size() >= max_transactions) break;
    out.push_back(*it);
  }
  return out;
}

uint64_t TxLog::LastLsn() const {
  check::MutexLock lock(&mu_);
  return next_lsn_ - 1;
}

bool TxLog::WaitForAppend(uint64_t after_lsn,
                          const std::atomic<bool>& running) {
  check::MutexLock lock(&mu_);
  // next_lsn_ counts appends, so truncation cannot hide a new LSN.
  ++waiters_;
  while (next_lsn_ - 1 <= after_lsn &&
         running.load(std::memory_order_relaxed)) {
    append_cv_.Wait();
  }
  --waiters_;
  return next_lsn_ - 1 > after_lsn;
}

void TxLog::WakeWaiters() {
  // Taking mu_ orders this call after any waiter's predicate check: each
  // waiter has either seen the caller's cleared flag or is parked.
  { check::MutexLock lock(&mu_); }
  append_cv_.NotifyAll();
}

size_t TxLog::size() const {
  check::MutexLock lock(&mu_);
  return entries_.size();
}

void TxLog::TruncateUpTo(uint64_t up_to_lsn) {
  check::MutexLock lock(&mu_);
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), up_to_lsn,
      [](uint64_t lsn, const LogTransaction& t) { return lsn < t.lsn; });
  const int64_t dropped = std::distance(entries_.begin(), it);
  entries_.erase(entries_.begin(), it);
  if (c_truncations_ != nullptr) c_truncations_->Increment();
  if (c_truncated_ != nullptr) c_truncated_->Increment(dropped);
  if (g_size_ != nullptr) g_size_->Set(static_cast<int64_t>(entries_.size()));
}

}  // namespace txrep::rel
