#ifndef TXREP_TXREP_REMOTE_REPLICA_H_
#define TXREP_TXREP_REMOTE_REPLICA_H_

#include <cstdint>
#include <memory>
#include <string>

#include "blink/blink_tree.h"
#include "common/result.h"
#include "common/status.h"
#include "core/serial_applier.h"
#include "kv/kv_cluster.h"
#include "mw/subscriber.h"
#include "net/subscription.h"
#include "obs/metrics.h"
#include "qt/query_translator.h"
#include "rel/schema.h"

namespace txrep {

/// Configuration of a replica process fed over the wire.
struct RemoteReplicaOptions {
  /// Where the primary's NetEndpoint listens. Ignored when
  /// `socket_factory` is set (tests dial through socketpairs).
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Overrides host/port dialing when set.
  net::NetSubscription::SocketFactory socket_factory;

  /// Wire subscription knobs (topic, resume LSN, credits, reconnect).
  net::NetSubscriptionOptions subscription;

  /// The replica's own key-value cluster and range-index trees. A null
  /// `blink.metrics` means the replica's own registry.
  kv::KvClusterOptions cluster;
  blink::BlinkTreeOptions blink;
};

/// A replica deployment living in its own process: dials the primary's
/// NetEndpoint, receives the catalog snapshot in the handshake, rebuilds the
/// relational layout locally (QueryTranslator over its own KvCluster) and
/// replays the replicated log through a SerialApplier — the bottom half of
/// Fig. 3 with the broker hop replaced by the wire (DESIGN.md §13).
///
/// Resume contract: a fresh replica (resume_after_lsn = 0) can only attach
/// to an endpoint whose retention still reaches LSN 1 — i.e. a primary that
/// started with an empty snapshot or began serving before traffic. Otherwise
/// the subscription is rejected with "bootstrap required" and Start() fails;
/// installing a checkpoint first and resuming from its epoch is the
/// recovery-path answer (PR 3 machinery), not re-copying over the wire.
class RemoteReplica {
 public:
  explicit RemoteReplica(RemoteReplicaOptions options);
  ~RemoteReplica();

  RemoteReplica(const RemoteReplica&) = delete;
  RemoteReplica& operator=(const RemoteReplica&) = delete;

  /// Dials, completes the handshake, decodes the catalog and starts the
  /// apply pipeline. Blocks until the subscription is live (or failed).
  Status Start();

  /// Blocks until every transaction with lsn <= `lsn` is applied locally.
  /// False when the pipeline stopped first (see health()).
  bool WaitForLsn(uint64_t lsn);

  /// Highest LSN applied locally.
  uint64_t applied_lsn() const;

  /// First failure of the wire subscription or the apply sink (OK while
  /// healthy; transient disconnects auto-reconnect and stay OK).
  Status health() const;

  /// Orderly stop of the apply pipeline and the wire subscription.
  void Stop();

  /// The replica store (valid after Start()).
  kv::KvCluster& cluster() { return *cluster_; }

  /// Catalog decoded from the handshake (valid after Start()).
  const rel::Catalog& catalog() const { return catalog_; }

  const qt::QueryTranslator& translator() const { return *translator_; }

  /// The wire subscription (valid after Start(); InjectDisconnect for
  /// kill-and-reconnect tests).
  net::NetSubscription* subscription() { return subscription_.get(); }

  obs::MetricsRegistry& metrics() { return registry_; }

 private:
  /// Declared first so it is destroyed last (instrument pointers).
  // analyze: lock-free(MetricsRegistry is internally synchronized)
  obs::MetricsRegistry registry_;

  // analyze: lock-free(set in ctor, immutable afterwards)
  RemoteReplicaOptions options_;

  // analyze: lock-free(set once in Start before the apply thread consumes it)
  rel::Catalog catalog_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<kv::KvCluster> cluster_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<qt::QueryTranslator> translator_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<core::SerialApplier> serial_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<net::NetSubscription> subscription_;
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<mw::SubscriberAgent> agent_;

  // analyze: lock-free(mutated only in Start/Stop on the control thread)
  bool started_ = false;
};

}  // namespace txrep

#endif  // TXREP_TXREP_REMOTE_REPLICA_H_
