#include "mw/subscriber.h"

#include "codec/log_codec.h"
#include "common/clock.h"
#include "common/logging.h"
#include "obs/names.h"

namespace txrep::mw {

SubscriberAgent::SubscriberAgent(Broker* broker, const std::string& topic,
                                 TxnSink sink, obs::MetricsRegistry* metrics,
                                 SubscriberOptions options,
                                 trace::Tracer* tracer)
    : SubscriberAgent(broker->Subscribe(topic), std::move(sink), metrics,
                      options, tracer) {}

SubscriberAgent::SubscriberAgent(MessageSource* source, TxnSink sink,
                                 obs::MetricsRegistry* metrics,
                                 SubscriberOptions options,
                                 trace::Tracer* tracer)
    : subscription_(source),
      sink_(std::move(sink)),
      hops_(metrics, tracer) {
  // Everything at or below the resume point counts as already applied.
  applied_lsn_ = options.resume_after_lsn;
  resume_after_lsn_ = options.resume_after_lsn;
  paused_ = options.start_paused;
  if (metrics != nullptr) {
    c_txns_received_ = metrics->GetCounter(obs::kMwTxnsReceived);
  }
  receive_thread_ = std::thread([this] { ReceiveLoop(); });
}

SubscriberAgent::~SubscriberAgent() { Stop(); }

void SubscriberAgent::ReceiveLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    {
      // While paused, delivered messages pile up in the subscription queue
      // (unbounded by default) instead of reaching the sink.
      check::MutexLock lock(&mu_);
      while (paused_ && running_.load(std::memory_order_relaxed)) cv_.Wait();
    }
    if (!running_.load(std::memory_order_relaxed)) break;
    std::optional<Message> message = subscription_->TryPop();
    if (!message.has_value()) {
      // Blocking pop, but wake up periodically so Stop() is responsive even
      // while the broker stays alive.
      message = subscription_->Pop();
      if (!message.has_value()) break;  // Broker shut down.
    }
    Result<std::vector<rel::LogTransaction>> batch =
        codec::DecodeLogBatch(message->payload);
    if (!batch.ok()) {
      TXREP_LOG(kError) << "subscriber failed to decode replication message: "
                        << batch.status().ToString();
      check::MutexLock lock(&mu_);
      health_ = batch.status();
      cv_.NotifyAll();
      break;
    }
    const int64_t pop_micros = NowMicros();
    for (rel::LogTransaction& txn : *batch) {
      const uint64_t lsn = txn.lsn;
      {
        // Duplicates below the resume point were installed from a snapshot
        // or direct log replay already. Duplicates at or below applied_lsn_
        // were applied by THIS agent — a reconnecting transport (wire
        // sessions resend whole retained batches that straddle the resume
        // point) redelivers them, and re-running their writes would fork the
        // replica from the primary. Either way: acknowledge, don't re-apply.
        check::MutexLock lock(&mu_);
        if (lsn <= resume_after_lsn_ || lsn <= applied_lsn_) {
          if (lsn > applied_lsn_) applied_lsn_ = lsn;
          cv_.NotifyAll();
          continue;
        }
      }
      if (message->deliver_micros != 0) {
        // The broker hop: queue share = publish -> delivery-thread pickup,
        // service share = delivery.
        hops_.RecordHop(
            obs::Stage::kBroker, txn.trace, lsn, message->publish_micros,
            message->deliver_micros,
            message->service_begin_micros > 0
                ? message->service_begin_micros - message->publish_micros
                : 0);
        // The recv hop: delivery -> hand-off to the sink. Time spent in the
        // subscription queue before the pop is queue wait.
        hops_.RecordHop(obs::Stage::kRecv, txn.trace, lsn,
                        message->deliver_micros, NowMicros(),
                        pop_micros - message->deliver_micros);
      }
      Status s = sink_(std::move(txn));
      if (c_txns_received_ != nullptr) c_txns_received_->Increment();
      check::MutexLock lock(&mu_);
      if (!s.ok()) {
        TXREP_LOG(kError) << "subscriber sink rejected lsn " << lsn << ": "
                          << s.ToString();
        health_ = s;
        cv_.NotifyAll();
        return;
      }
      applied_lsn_ = lsn;
      cv_.NotifyAll();
    }
  }
  check::MutexLock lock(&mu_);
  stopped_ = true;
  cv_.NotifyAll();
}

bool SubscriberAgent::WaitForLsn(uint64_t lsn) {
  check::MutexLock lock(&mu_);
  while (applied_lsn_ < lsn && !stopped_ && health_.ok()) cv_.Wait();
  return applied_lsn_ >= lsn;
}

void SubscriberAgent::Resume() {
  check::MutexLock lock(&mu_);
  paused_ = false;
  cv_.NotifyAll();
}

void SubscriberAgent::ResumeFrom(uint64_t lsn) {
  check::MutexLock lock(&mu_);
  if (lsn > resume_after_lsn_) resume_after_lsn_ = lsn;
  if (lsn > applied_lsn_) applied_lsn_ = lsn;
  paused_ = false;
  cv_.NotifyAll();
}

void SubscriberAgent::Stop() {
  running_.store(false, std::memory_order_relaxed);
  {
    // Wake a receive thread parked on the pause gate.
    check::MutexLock lock(&mu_);
    cv_.NotifyAll();
  }
  // Close our subscription so a receive thread blocked in Pop() wakes up:
  // it drains whatever the broker already delivered, then sees
  // end-of-stream and exits. Without this, Stop() on a still-running broker
  // joined against a thread that would never wake (the pre-PR behavior).
  subscription_->Close();
  if (receive_thread_.joinable()) receive_thread_.join();
}

uint64_t SubscriberAgent::applied_lsn() const {
  check::MutexLock lock(&mu_);
  return applied_lsn_;
}

Status SubscriberAgent::health() const {
  check::MutexLock lock(&mu_);
  return health_;
}

}  // namespace txrep::mw
