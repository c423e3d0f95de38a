#ifndef TXREP_TXREP_SYSTEM_H_
#define TXREP_TXREP_SYSTEM_H_

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "blink/blink_tree.h"
#include "common/blocking_queue.h"
#include "common/histogram.h"
#include "common/result.h"
#include "core/serial_applier.h"
#include "core/transaction_manager.h"
#include "kv/kv_cluster.h"
#include "mw/broker.h"
#include "mw/publisher.h"
#include "mw/subscriber.h"
#include "net/endpoint.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "qt/consistency_checker.h"
#include "qt/query_translator.h"
#include "qt/replica_reader.h"
#include "recov/checkpoint.h"
#include "rel/database.h"
#include "trace/slo.h"
#include "trace/tracer.h"

namespace txrep {

/// Checkpoint / restart behaviour of a deployment (the recov subsystem).
struct RecoveryOptions {
  /// Non-empty enables checkpointing: directory receiving the per-node
  /// snapshot files, manifests and the durable replication cursor. A
  /// restarted system pointed at the same directory resumes from the newest
  /// usable checkpoint instead of re-copying the full database snapshot.
  std::string checkpoint_dir;

  /// Look for a checkpoint at Start() and resume from it when one is usable
  /// (otherwise fall back to the cold snapshot copy).
  bool resume_from_checkpoint = true;

  /// Delete superseded checkpoints after each successful Checkpoint().
  bool prune_old_checkpoints = true;

  /// Compact disk-backed nodes right after a checkpoint install (the
  /// install rewrote every key, leaving the node logs full of dead history).
  bool compact_after_install = true;

  /// Crash-injection knobs for the checkpoint protocol (tests only).
  recov::CheckpointFaults faults;
};

/// End-to-end configuration of a TxRep deployment.
struct TxRepOptions {
  /// Replica key-value cluster (node count, simulated service time, ...).
  kv::KvClusterOptions cluster;

  /// Transaction manager knobs (thread pools, GC threshold, ...).
  core::TmOptions tm;

  /// Broker simulation (delivery latency).
  mw::BrokerOptions broker;

  /// Publisher agent (batch size, poll interval).
  mw::PublisherOptions publisher;

  /// B-link tree fanout for the replica's range indexes.
  blink::BlinkTreeOptions blink;

  /// true: the paper's concurrent TM applies transactions.
  /// false: the single-threaded serial baseline.
  bool concurrent_replication = true;

  /// Record per-transaction replication lag (DB commit -> replica apply).
  bool measure_lag = false;

  /// > 0: a background reporter thread dumps the metrics registry at this
  /// interval (to the log by default, or to `metrics_report_sink`).
  int64_t metrics_report_interval_micros = 0;

  /// Optional sink for the periodic reporter (null = log a text dump).
  obs::PeriodicReporter::Sink metrics_report_sink;

  /// Checkpoint / restart configuration (off unless checkpoint_dir is set).
  RecoveryOptions recovery;

  /// Per-transaction distributed tracing (off unless sample_every > 0):
  /// sampled transactions carry a trace context from DB commit through the
  /// pipeline and every hop records spans into the flight recorder.
  trace::TracerOptions trace;

  /// Replica-lag SLO watchdog (off unless slo.enabled): burn-rate tracking
  /// over sliding windows plus an apply-progress stall detector that dumps
  /// the flight recorder.
  trace::SloOptions slo;
};

/// The whole TxRep deployment of paper Fig. 3 in one object:
///
///   Database (rel) --log--> PublisherAgent --Broker--> SubscriberAgent
///        --> {TransactionManager | SerialApplier} --QT--> KvCluster
///
/// Usage:
///   TxRepSystem sys(options);
///   ... create schema + populate sys.database() ...
///   sys.Start();                       // snapshot to replica, begin shipping
///   ... run write transactions on sys.database() ...
///   sys.SyncToLatest();                // drain the pipeline
///   sys.QueryReplica(select);          // read-only workload on the replica
class TxRepSystem {
 public:
  explicit TxRepSystem(TxRepOptions options = {});
  ~TxRepSystem();

  TxRepSystem(const TxRepSystem&) = delete;
  TxRepSystem& operator=(const TxRepSystem&) = delete;

  /// The original relational database (run the read/write workload here).
  rel::Database& database() { return db_; }

  /// The replica cluster (raw key-value access).
  kv::KvCluster& replica() { return *cluster_; }

  /// Copies the current database snapshot into the replica and starts the
  /// replication pipeline (publisher polling, subscriber applying). Call
  /// once, after schema creation and initial population.
  Status Start();

  /// Ships and applies everything committed so far; blocks until the replica
  /// caught up. Returns the pipeline health.
  Status SyncToLatest();

  /// Takes a durable checkpoint of the replica at a consistent transaction
  /// boundary: drains the in-flight transactions (TM quiescent barrier, or
  /// the serial apply gate), snapshots every cluster node at the last
  /// applied LSN (the snapshot epoch), and advances the durable cursor.
  /// Writes keep flowing on the database side throughout; only replica
  /// apply pauses. Requires options().recovery.checkpoint_dir.
  Result<recov::CheckpointStats> Checkpoint();

  /// True when Start() resumed from a checkpoint instead of cold-copying
  /// the database snapshot.
  bool resumed_from_checkpoint() const { return resumed_from_checkpoint_; }

  /// Replaces the crash-injection knobs for subsequent Checkpoint() calls
  /// (tests only).
  void set_checkpoint_faults(const recov::CheckpointFaults& faults);

  /// The replication broker (valid after Start()); bootstrap attaches new
  /// replicas here.
  mw::Broker* broker() { return broker_.get(); }

  /// Attaches the wire endpoint to the broker (once; later calls no-op):
  /// catalog snapshot for remote handshakes, retention floor at the
  /// publisher's current position (LSNs shipped before the endpoint existed
  /// never reached its retention — resumes below the floor must bootstrap).
  /// Call after Start(). `options.topic` is forced to the publisher's.
  /// Socketpair deployments (tests, benches, the explorer's wire mode) then
  /// feed connections through net_endpoint()->ServeSocket().
  Status AttachWireEndpoint(net::EndpointOptions options = {});

  /// AttachWireEndpoint() + TCP listener on 127.0.0.1:`port` (0 =
  /// ephemeral; see net_endpoint()->port()). Remote replica processes
  /// connect here.
  Status ServeReplication(uint16_t port);

  /// The wire endpoint (null until AttachWireEndpoint/ServeReplication).
  net::NetEndpoint* net_endpoint() { return net_endpoint_.get(); }

  /// Topic update transactions are published on.
  const std::string& topic() const { return options_.publisher.topic; }

  /// Read-only transaction on the replica, interleaved with replication via
  /// the TM (sequence-consistent reads). Falls back to a direct read when
  /// running the serial baseline.
  Result<std::vector<rel::Row>> QueryReplica(const rel::SelectStatement& stmt);

  /// Runs `body` as ONE interleaved read-only transaction: all its reads see
  /// the replica state of a single sequence point (serializable against the
  /// replication stream). The body receives the buffered store view and a
  /// ReplicaReader bound to the catalog; return non-OK to signal failure.
  /// Under the serial baseline the body runs directly against the cluster
  /// (the subscriber thread is the only writer, but reads are then only
  /// key-atomic, not transactional).
  Status RunReadOnlyTransaction(
      const std::function<Status(kv::KvStore*, const qt::ReplicaReader&)>&
          body);

  /// Non-transactional read straight against the cluster (memcached-style
  /// access; may observe mid-replay state of multi-op transactions only
  /// through key-level atomicity — exactly the paper's §3.1 model).
  Result<std::vector<rel::Row>> QueryReplicaNonTransactional(
      const rel::SelectStatement& stmt);

  /// TM statistics (zeros under the serial baseline).
  core::TmStats tm_stats() const;

  /// The deployment's metrics registry: every layer (database, log, broker,
  /// publisher, subscriber, TM / serial applier, KV nodes, replica reader)
  /// publishes its instruments here. Snapshot + export via obs/exporters.h.
  obs::MetricsRegistry& metrics() { return registry_; }
  const obs::MetricsRegistry& metrics() const { return registry_; }

  /// Replication lag distribution in microseconds (empty unless
  /// options.measure_lag).
  const Histogram& lag_histogram() const { return lag_histogram_; }

  /// The deployment tracer (null unless options.trace.sample_every > 0).
  /// Dump() / Exemplars() read the flight recorder; feed the result to
  /// trace/export.h for Chrome-trace JSON or a text timeline.
  trace::Tracer* tracer() { return tracer_.get(); }

  /// The SLO watchdog (null unless options.slo.enabled).
  trace::SloWatchdog* slo() { return slo_.get(); }

  /// The larger of the subscriber's hand-off LSN (the highest LSN passed
  /// to the apply sink) and the LSN of the snapshot the replica was
  /// bootstrapped from. Under the serial applier the sink applies before it
  /// returns, so this is the applied LSN. Under the TM the sink only
  /// submits, so the transaction at this LSN, and some below it, may still
  /// be executing or applying; only an idle TM makes it an applied prefix.
  /// A true applied-prefix watermark is ROADMAP item 5.
  uint64_t replica_lsn() const;

  /// Audits the replica against the database (row objects, hash postings,
  /// B-link indexes, stray objects). Quiesce first (SyncToLatest) for a
  /// meaningful answer.
  Result<qt::ConsistencyReport> AuditReplica();

  /// Truncates the database's transaction log up to replica_lsn(), after
  /// first waiting for the TM (if any) to go idle so that every LSN handed
  /// off so far has been applied. A failed TM ends that wait early, and the
  /// truncation point may then cover transactions it never applied.
  /// Returns the truncation point. The publisher never re-reads below its
  /// shipped cursor, and entries above the returned LSN are retained.
  uint64_t TruncateReplicatedLog();

  const qt::QueryTranslator& translator() const { return *translator_; }
  const TxRepOptions& options() const { return options_; }

 private:
  struct LagProbe {
    std::shared_ptr<core::Transaction> handle;  // Null under serial applier.
    int64_t commit_micros = 0;
  };

  Status ApplySink(rel::LogTransaction txn);
  void LagLoop();

  /// Declared first so it is destroyed last: every component below holds
  /// instrument pointers into it.
  // analyze: lock-free(MetricsRegistry is internally synchronized)
  obs::MetricsRegistry registry_;

  // analyze: lock-free(set in ctor, immutable afterwards)
  TxRepOptions options_;

  /// Declared before the pipeline components (destroyed after them): the
  /// log, publisher, subscriber and appliers all record spans into it. The
  /// watchdog thread is stopped explicitly in the destructor before the
  /// appliers it probes go away.
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<trace::Tracer> tracer_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<trace::SloWatchdog> slo_;

  // analyze: lock-free(Database owns its own mutex)
  rel::Database db_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<kv::KvCluster> cluster_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<qt::QueryTranslator> translator_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<qt::ReplicaReader> reader_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<core::TransactionManager> tm_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<core::SerialApplier> serial_;
  /// Declared before broker_ (so destroyed after it): the endpoint's fanout
  /// stays attached for the broker's lifetime, and the broker's delivery
  /// thread must be gone before the endpoint it calls into is.
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<net::NetEndpoint> net_endpoint_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<mw::Broker> broker_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<mw::PublisherAgent> publisher_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<mw::SubscriberAgent> subscriber_;

  // analyze: lock-free(Histogram is internally synchronized)
  Histogram lag_histogram_;
  // analyze: lock-free(BlockingQueue is internally synchronized)
  BlockingQueue<LagProbe> lag_queue_;
  // analyze: lock-free(thread handle; started once, joined in Stop/dtor only)
  std::thread lag_thread_;

  /// Serializes serial-path applies against checkpointing: the subscriber
  /// sink holds it shared per transaction, Checkpoint() exclusively (the TM
  /// path has its own quiescent barrier instead).
  check::SharedMutex apply_gate_{"txrep.apply_gate"};
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<recov::CheckpointWriter> checkpoint_writer_;

  // analyze: lock-free(mutated only in Start/Checkpoint on the control thread)
  uint64_t snapshot_lsn_ = 0;  // Transactions <= this came via the snapshot.
  // analyze: lock-free(mutated only in Start/Stop on the control thread)
  bool started_ = false;
  // analyze: lock-free(set once in Start before workers exist)
  bool resumed_from_checkpoint_ = false;

  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_readonly_latency_ = nullptr;

  /// Declared last so it stops before anything it samples is destroyed.
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<obs::PeriodicReporter> reporter_;
};

}  // namespace txrep

#endif  // TXREP_TXREP_SYSTEM_H_
