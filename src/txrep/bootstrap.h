#ifndef TXREP_TXREP_BOOTSTRAP_H_
#define TXREP_TXREP_BOOTSTRAP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/result.h"
#include "common/status.h"
#include "core/serial_applier.h"
#include "kv/kv_cluster.h"
#include "mw/subscriber.h"
#include "obs/metrics.h"
#include "qt/replica_reader.h"
#include "recov/catchup_gate.h"
#include "txrep/system.h"

namespace txrep {

/// Configuration of an online replica bootstrap (BootstrappedReplica::Attach).
struct BootstrapOptions {
  /// The new replica's key-value cluster (node count, backend, ...). A
  /// kDisk backend with its own disk_dir gives a durably bootstrapped
  /// replica.
  kv::KvClusterOptions cluster;

  /// Directory holding the primary's checkpoints. When a usable checkpoint
  /// exists the replica starts from it and only replays the log tail;
  /// otherwise it replays the full log from LSN 0.
  std::string checkpoint_dir;

  /// The catch-up gate admits reads once the replica is within this many
  /// LSNs of the primary.
  uint64_t max_admission_lag = 0;

  /// Poll interval of the background lag monitor feeding the gate.
  int64_t catchup_poll_micros = 1000;
};

/// A brand-new replica attached to a live TxRepSystem while writes keep
/// flowing — the recov subsystem's online bootstrap (ISSUE tentpole #3).
///
/// Attach() runs the handoff protocol:
///
///   1. Subscribe to the replication topic PAUSED. From this instant every
///      published message is either held in the subscription queue or yet to
///      be published — nothing can be missed.
///   2. Install the latest durable checkpoint (epoch E), or start empty.
///   3. Replay the database log tail (lsn > E) directly via ReadSince into a
///      private SerialApplier, bringing the replica to the log's current end.
///   4. ResumeFrom(last replayed LSN): the paused subscriber drains its held
///      queue, skipping everything the direct replay already covered, and
///      live apply takes over.
///
/// The apply sink is self-healing: if a delivered transaction's LSN jumps
/// past last_applied+1 (possible when messages published before step 1 were
/// compacted out of the queue bound, or the subscription raced publication),
/// the gap is fetched straight from the primary's log and replayed first.
/// Caveat: the primary must not truncate its log past the bootstrap point
/// while a bootstrap is in flight.
///
/// Reads go through Query(), which consults a CatchupGate: FailedPrecondition
/// until the replica has been within `max_admission_lag` LSNs of the primary
/// at least once.
class BootstrappedReplica {
 public:
  /// Attaches a new replica to `system` (which must be Start()ed and must
  /// outlive the returned replica). Returns after the initial state install
  /// and tail replay, with live replication flowing; use WaitUntilCaughtUp()
  /// to block until the read gate opens.
  static Result<std::unique_ptr<BootstrappedReplica>> Attach(
      TxRepSystem* system, BootstrapOptions options);

  ~BootstrappedReplica();

  BootstrappedReplica(const BootstrappedReplica&) = delete;
  BootstrappedReplica& operator=(const BootstrappedReplica&) = delete;

  /// Gated read: FailedPrecondition while the replica is still catching up,
  /// the SELECT result once the gate has opened.
  Result<std::vector<rel::Row>> Query(const rel::SelectStatement& stmt);

  /// Blocks until the catch-up gate opens (true) or the timeout expires.
  bool WaitUntilCaughtUp(int64_t timeout_micros);

  bool caught_up() const { return gate_->IsOpen(); }

  /// Highest LSN this replica's state covers (checkpoint install included).
  uint64_t replica_lsn() const {
    const uint64_t applied = applier_->last_applied_lsn();
    return applied > bootstrap_lsn_ ? applied : bootstrap_lsn_;
  }

  /// LSN the bootstrap resumed live replication from: everything <= this
  /// came from the checkpoint install + direct tail replay.
  uint64_t bootstrap_lsn() const { return bootstrap_lsn_; }

  /// True when step 2 installed a checkpoint (false = empty start).
  bool installed_checkpoint() const { return installed_checkpoint_; }

  /// Stops live replication and the lag monitor. Idempotent; the replica's
  /// cluster stays readable (and, for a disk backend, durable).
  void Detach();

  kv::KvCluster& cluster() { return *cluster_; }
  obs::MetricsRegistry& metrics() { return registry_; }
  const recov::CatchupGate& gate() const { return *gate_; }

 private:
  BootstrappedReplica(TxRepSystem* system, BootstrapOptions options);

  /// Runs handoff steps 1-4; on error the object is safe to destroy.
  Status Start();

  /// Subscriber sink: gap-fills from the primary log, then applies.
  Status ApplySink(rel::LogTransaction txn);

  /// Background lag monitor feeding the catch-up gate.
  void CatchupLoop();

  /// Declared first so it is destroyed last (components hold instruments).
  // analyze: lock-free(MetricsRegistry is internally synchronized)
  obs::MetricsRegistry registry_;

  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  TxRepSystem* system_;  // Not owned; must outlive this replica.
  // analyze: lock-free(set in ctor, immutable afterwards)
  BootstrapOptions options_;

  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<kv::KvCluster> cluster_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<core::SerialApplier> applier_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<qt::ReplicaReader> reader_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<recov::CatchupGate> gate_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<mw::SubscriberAgent> subscriber_;

  // analyze: lock-free(set during single-threaded bootstrap phase)
  uint64_t bootstrap_lsn_ = 0;
  // analyze: lock-free(set during single-threaded bootstrap phase)
  bool installed_checkpoint_ = false;

  /// Serializes ApplySink (subscriber thread) against nothing today — the
  /// subscriber is the only writer — but keeps the gap-fill + apply sequence
  /// atomic if a second submitter ever appears.
  check::Mutex apply_mu_{"txrep.bootstrap.apply"};

  std::atomic<bool> monitor_running_{false};
  // analyze: lock-free(thread handle; started once, joined in Stop/dtor only)
  std::thread monitor_thread_;
  // analyze: lock-free(set before monitor thread starts; read at teardown after join)
  bool detached_ = false;

  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_tail_txns_ = nullptr;
};

}  // namespace txrep

#endif  // TXREP_TXREP_BOOTSTRAP_H_
