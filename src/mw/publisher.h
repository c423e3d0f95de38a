#ifndef TXREP_MW_PUBLISHER_H_
#define TXREP_MW_PUBLISHER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "check/mutex.h"

#include "common/result.h"
#include "common/status.h"
#include "mw/broker.h"
#include "rel/txlog.h"
#include "trace/hop_recorder.h"

namespace txrep::mw {

/// Publisher agent configuration.
struct PublisherOptions {
  /// Topic the replication messages go to.
  std::string topic = "txrep.log";

  /// Maximum transactions packed into one replication message. The
  /// background pump wakes on every commit, so a message carries more than
  /// one transaction only when a backlog built up while it was publishing.
  size_t batch_size = 100;

  /// Transactions with lsn <= this are never shipped (they are part of the
  /// initial snapshot the replica was loaded from).
  uint64_t start_after_lsn = 0;
};

/// The publisher agent of the replication middleware (paper Appendix A):
/// tails the database transaction log, packs new transactions into
/// replication messages and publishes them to the broker. The background
/// pump reads the log whenever a commit lands (TxLog::WaitForAppend), so an
/// idle log costs nothing and a new commit waits for no timer.
class PublisherAgent {
 public:
  /// `log` and `broker` must outlive the agent. `metrics` and `tracer`
  /// (optional, same lifetime rule) receive the publish hop of every shipped
  /// transaction; `metrics` also the batch size distribution.
  PublisherAgent(rel::TxLog* log, Broker* broker, PublisherOptions options = {},
                 obs::MetricsRegistry* metrics = nullptr,
                 trace::Tracer* tracer = nullptr);

  ~PublisherAgent();

  PublisherAgent(const PublisherAgent&) = delete;
  PublisherAgent& operator=(const PublisherAgent&) = delete;

  /// Ships at most one batch of new transactions. Returns the number of
  /// transactions shipped (0 when the log has nothing new). Thread-safe:
  /// concurrent callers (the background pump + an explicit PumpAll) are
  /// serialized so a batch is never shipped twice.
  Result<size_t> PumpOnce();

  /// Ships everything currently in the log (possibly several messages).
  Status PumpAll();

  /// Starts / stops the background pump thread. Start is idempotent.
  void Start();
  void Stop();

  uint64_t shipped_lsn() const {
    return shipped_lsn_.load(std::memory_order_relaxed);
  }
  int64_t messages_published() const {
    return messages_published_.load(std::memory_order_relaxed);
  }

 private:
  void PumpLoop();

  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  rel::TxLog* log_;  // Not owned.
  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  Broker* broker_;   // Not owned.
  const PublisherOptions options_;
  const trace::HopRecorder hops_;

  /// Serializes PumpOnce (read-log + publish + advance).
  check::Mutex pump_mu_{"publisher.pump"};
  std::atomic<uint64_t> shipped_lsn_{0};
  std::atomic<int64_t> messages_published_{0};
  std::atomic<bool> running_{false};
  // analyze: lock-free(thread handle; started once, joined in Stop/dtor only)
  std::thread pump_thread_;

  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_batch_size_ = nullptr;
};

}  // namespace txrep::mw

#endif  // TXREP_MW_PUBLISHER_H_
