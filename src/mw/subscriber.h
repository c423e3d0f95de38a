#ifndef TXREP_MW_SUBSCRIBER_H_
#define TXREP_MW_SUBSCRIBER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "check/mutex.h"

#include "common/status.h"
#include "mw/broker.h"
#include "rel/txlog.h"
#include "trace/hop_recorder.h"

namespace txrep::mw {

/// Start-up behaviour of a SubscriberAgent (recovery / bootstrap support).
struct SubscriberOptions {
  /// Transactions with lsn <= this are acknowledged but NOT handed to the
  /// sink — the replica already holds them (from a checkpoint snapshot or a
  /// direct log replay). A restarted replica resumes at its snapshot epoch
  /// instead of re-applying from LSN 0.
  uint64_t resume_after_lsn = 0;

  /// Start with the receive loop holding delivered messages in the
  /// subscription queue instead of consuming them. Online bootstrap
  /// subscribes paused *before* sampling the publisher position, so every
  /// message past the sample is provably either in the held queue or later;
  /// Resume()/ResumeFrom() opens the tap.
  bool start_paused = false;
};

/// The subscriber agent of the replication middleware (paper Appendix A):
/// receives replication messages, unpacks the logged transactions and hands
/// them — in LSN order — to the replica-side applier (the TM or the serial
/// baseline). The sequence-number assignment the paper describes (update
/// transactions numbered in log order, read-only transactions interleaved)
/// happens inside the sink: the TransactionManager numbers submissions in
/// arrival order, and this agent is the single submitter of update
/// transactions.
class SubscriberAgent {
 public:
  /// Called once per logged transaction, in order.
  using TxnSink = std::function<Status(rel::LogTransaction)>;

  /// Subscribes on `topic` and starts the receive thread immediately
  /// (paused when `options.start_paused`). `broker` (and `metrics` /
  /// `tracer`, when given) must outlive the agent. Both receive the broker
  /// and recv hops of every transaction handed to the sink. The broker
  /// treats payloads as opaque bytes, so its hop is recorded here, from the
  /// message stamps.
  SubscriberAgent(Broker* broker, const std::string& topic, TxnSink sink,
                  obs::MetricsRegistry* metrics = nullptr,
                  SubscriberOptions options = {},
                  trace::Tracer* tracer = nullptr);

  /// Same agent fed from an explicit MessageSource (e.g. a
  /// net::NetSubscription streaming frames from a remote broker). `source`
  /// must outlive the agent; Stop() closes it but does not destroy it.
  SubscriberAgent(MessageSource* source, TxnSink sink,
                  obs::MetricsRegistry* metrics = nullptr,
                  SubscriberOptions options = {},
                  trace::Tracer* tracer = nullptr);

  ~SubscriberAgent();

  SubscriberAgent(const SubscriberAgent&) = delete;
  SubscriberAgent& operator=(const SubscriberAgent&) = delete;

  /// Blocks until every transaction with lsn <= `lsn` has been handed to the
  /// sink (or the agent stopped). True on success, false if stopped first.
  bool WaitForLsn(uint64_t lsn);

  /// Opens the tap of a paused agent. No-op when already running.
  void Resume();

  /// Atomically raises resume_after_lsn to `lsn` (never lowers it) and
  /// resumes. Bootstrap calls this after installing state that already
  /// covers everything up to `lsn`, so queued duplicates are skipped.
  void ResumeFrom(uint64_t lsn);

  /// Stops the receive thread (drains nothing further). Idempotent.
  void Stop();

  /// Highest LSN handed to the sink so far.
  uint64_t applied_lsn() const;

  /// Sticky error from decoding or the sink (OK while healthy).
  Status health() const;

 private:
  void ReceiveLoop();

  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  MessageSource* subscription_;  // Owned by the broker / the caller.
  // analyze: lock-free(set in ctor, immutable afterwards)
  TxnSink sink_;
  const trace::HopRecorder hops_;

  mutable check::Mutex mu_{"subscriber.mu"};
  check::CondVar cv_{&mu_};
  uint64_t applied_lsn_ TXREP_GUARDED_BY(mu_) = 0;
  uint64_t resume_after_lsn_ TXREP_GUARDED_BY(mu_) = 0;
  bool paused_ TXREP_GUARDED_BY(mu_) = false;
  Status health_ TXREP_GUARDED_BY(mu_) = Status::OK();
  bool stopped_ TXREP_GUARDED_BY(mu_) = false;

  std::atomic<bool> running_{true};
  // analyze: lock-free(thread handle; started once, joined in Stop/dtor only)
  std::thread receive_thread_;

  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_txns_received_ = nullptr;
};

}  // namespace txrep::mw

#endif  // TXREP_MW_SUBSCRIBER_H_
