#include "mw/publisher.h"

#include "codec/log_codec.h"
#include "common/clock.h"
#include "common/logging.h"
#include "obs/names.h"

namespace txrep::mw {

PublisherAgent::PublisherAgent(rel::TxLog* log, Broker* broker,
                               PublisherOptions options,
                               obs::MetricsRegistry* metrics,
                               trace::Tracer* tracer)
    : log_(log),
      broker_(broker),
      options_(std::move(options)),
      hops_(metrics, tracer) {
  shipped_lsn_.store(options_.start_after_lsn, std::memory_order_relaxed);
  if (metrics != nullptr) {
    h_batch_size_ = metrics->GetHistogram(obs::kMwBatchSize);
  }
}

PublisherAgent::~PublisherAgent() { Stop(); }

Result<size_t> PublisherAgent::PumpOnce() {
  check::MutexLock lock(&pump_mu_);
  const uint64_t from = shipped_lsn_.load(std::memory_order_relaxed);
  const int64_t pickup_micros = NowMicros();
  std::vector<rel::LogTransaction> batch =
      log_->ReadSince(from, options_.batch_size);
  if (batch.empty()) return size_t{0};
  const uint64_t last = batch.back().lsn;
  std::string payload = codec::EncodeLogBatch(batch);
  // The publish hop ends here, NOT after Publish() returns: the broker hop
  // starts at the stamp Publish() takes internally, so ending the publish
  // hop any later would overlap the two whenever this thread is descheduled
  // inside the call (the hops must tile the e2e window).
  const int64_t now = NowMicros();
  TXREP_RETURN_IF_ERROR(broker_->Publish(options_.topic, std::move(payload)));
  shipped_lsn_.store(last, std::memory_order_relaxed);
  messages_published_.fetch_add(1, std::memory_order_relaxed);
  // Per-txn time from db commit to reaching the broker; the share before
  // the pump picked the batch up is log-tail queue wait.
  for (const rel::LogTransaction& txn : batch) {
    hops_.RecordHop(obs::Stage::kPublish, txn.trace, txn.lsn,
                    txn.commit_micros, now, pickup_micros - txn.commit_micros);
  }
  if (h_batch_size_ != nullptr) {
    h_batch_size_->Record(static_cast<int64_t>(batch.size()));
  }
  return batch.size();
}

Status PublisherAgent::PumpAll() {
  for (;;) {
    TXREP_ASSIGN_OR_RETURN(size_t shipped, PumpOnce());
    if (shipped == 0) return Status::OK();
  }
}

void PublisherAgent::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  pump_thread_ = std::thread([this] { PumpLoop(); });
}

void PublisherAgent::Stop() {
  if (!running_.exchange(false)) return;
  log_->WakeWaiters();
  if (pump_thread_.joinable()) pump_thread_.join();
}

void PublisherAgent::PumpLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    Result<size_t> shipped = PumpOnce();
    if (shipped.ok() && *shipped > 0) continue;  // Drain a backlog first.
    uint64_t wait_after = shipped_lsn();
    if (!shipped.ok()) {
      // Publish fails only once the broker is shut down: retry once per
      // new commit rather than in a loop.
      TXREP_LOG(kWarn) << "publisher pump failed: "
                       << shipped.status().ToString();
      wait_after = log_->LastLsn();
    }
    log_->WaitForAppend(wait_after, running_);
  }
}

}  // namespace txrep::mw
