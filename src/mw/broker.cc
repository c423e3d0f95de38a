#include "mw/broker.h"

#include "common/clock.h"
#include "common/logging.h"
#include "obs/names.h"

namespace txrep::mw {

Broker::Broker(BrokerOptions options, obs::MetricsRegistry* metrics)
    : options_(options) {
  if (metrics != nullptr) {
    c_published_ = metrics->GetCounter(obs::kMwMessagesPublished);
    c_delivered_ = metrics->GetCounter(obs::kMwMessagesDelivered);
    g_queue_depth_ =
        metrics->GetGauge(obs::kQueueDepth, {{"queue", obs::kQueueBroker}});
  }
  delivery_thread_ = std::thread([this] { DeliveryLoop(); });
}

Broker::~Broker() { Shutdown(); }

Broker::Subscription* Broker::Subscribe(const std::string& topic) {
  check::MutexLock lock(&mu_);
  auto subscription =
      std::make_unique<Subscription>(options_.subscriber_queue_capacity);
  Subscription* raw = subscription.get();
  topics_[topic].push_back(std::move(subscription));
  return raw;
}

void Broker::AttachFanout(const std::string& topic, Fanout fanout) {
  check::MutexLock lock(&mu_);
  fanouts_[topic].push_back(std::move(fanout));
}

Status Broker::Publish(std::string topic, std::string payload) {
  Message message;
  message.topic = std::move(topic);
  message.payload = std::move(payload);
  message.publish_micros = NowMicros();
  {
    check::MutexLock lock(&mu_);
    if (shutdown_) {
      TXREP_LOG(kWarn) << "Publish to topic \"" << message.topic
                       << "\" rejected: broker is shut down";
      return Status::Unavailable("broker is shut down");
    }
    ++published_;
  }
  if (!pending_.Push(std::move(message))) {
    // Shutdown raced in between the check above and the push: the message
    // was dropped, so take it back out of the published count — otherwise
    // published_ > delivered_ forever and bookkeeping (tests, dashboards)
    // reports a phantom in-flight message.
    {
      check::MutexLock lock(&mu_);
      --published_;
      flush_cv_.NotifyAll();
    }
    TXREP_LOG(kWarn) << "Publish rejected: broker queue closed mid-publish";
    return Status::Unavailable("broker is shut down");
  }
  if (c_published_ != nullptr) c_published_->Increment();
  if (g_queue_depth_ != nullptr) {
    g_queue_depth_->Set(static_cast<int64_t>(pending_.size()));
  }
  return Status::OK();
}

void Broker::DeliveryLoop() {
  for (;;) {
    std::optional<Message> message = pending_.Pop();
    if (!message.has_value()) return;  // Shut down and drained.
    if (g_queue_depth_ != nullptr) {
      g_queue_depth_->Set(static_cast<int64_t>(pending_.size()));
    }
    message->service_begin_micros = NowMicros();
    SleepForMicros(options_.delivery_delay_micros);
    message->deliver_micros = NowMicros();
    std::vector<Subscription*> targets;
    std::vector<Fanout*> fanouts;
    {
      check::MutexLock lock(&mu_);
      auto it = topics_.find(message->topic);
      if (it != topics_.end()) {
        for (const auto& sub : it->second) targets.push_back(sub.get());
      }
      auto fit = fanouts_.find(message->topic);
      if (fit != fanouts_.end()) {
        for (Fanout& fanout : fit->second) fanouts.push_back(&fanout);
      }
    }
    // Enqueue outside mu_ so bounded-subscriber backpressure cannot block
    // Subscribe()/Publish().
    for (Subscription* sub : targets) {
      sub->queue_.Push(*message);
    }
    // Fanouts (wire endpoints) run after local delivery, also outside mu_:
    // when a remote session stalls, this thread blocks here and publishers
    // feel it through the bounded pending_ queue.
    for (Fanout* fanout : fanouts) {
      (*fanout)(*message);
    }
    if (c_delivered_ != nullptr) c_delivered_->Increment();
    check::MutexLock lock(&mu_);
    ++delivered_;
    flush_cv_.NotifyAll();
  }
}

void Broker::Flush() {
  check::MutexLock lock(&mu_);
  while (delivered_ != published_ && !shutdown_) flush_cv_.Wait();
}

void Broker::Shutdown() {
  {
    check::MutexLock lock(&mu_);
    shutdown_ = true;
    flush_cv_.NotifyAll();
  }
  pending_.Close();
  if (delivery_thread_.joinable()) delivery_thread_.join();
  // Close subscriber queues so blocked Pop()s return end-of-stream.
  check::MutexLock lock(&mu_);
  for (auto& [topic, subs] : topics_) {
    for (auto& sub : subs) sub->queue_.Close();
  }
}

int64_t Broker::published() const {
  check::MutexLock lock(&mu_);
  return published_;
}

int64_t Broker::delivered() const {
  check::MutexLock lock(&mu_);
  return delivered_;
}

}  // namespace txrep::mw
