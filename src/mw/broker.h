#ifndef TXREP_MW_BROKER_H_
#define TXREP_MW_BROKER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/mutex.h"
#include "common/blocking_queue.h"
#include "common/status.h"
#include "mw/message_source.h"
#include "obs/metrics.h"

namespace txrep::mw {

/// One message on the wire: an opaque payload published to a topic.
struct Message {
  std::string topic;
  std::string payload;
  int64_t publish_micros = 0;  // Stamped by the broker at Publish().
  /// Stamped when the delivery thread picked the message up (before the
  /// simulated delivery delay): splits the broker hop into queue wait
  /// (publish -> pickup) and service (pickup -> deliver).
  int64_t service_begin_micros = 0;
  int64_t deliver_micros = 0;  // Stamped by the broker at delivery.
};

/// Broker simulation knobs.
struct BrokerOptions {
  /// Simulated broker-side delivery latency per message, microseconds.
  int64_t delivery_delay_micros = 0;

  /// Bound on each subscriber queue (0 = unbounded). When a queue is full
  /// the delivery thread blocks — backpressure, like a real broker.
  size_t subscriber_queue_capacity = 0;
};

/// In-process publish/subscribe message broker — the ActiveMQ stand-in of
/// the paper's replication middleware (Appendix A). Topics, totally ordered
/// per-topic delivery, decoupled publishers/subscribers, optional simulated
/// delivery latency. A single delivery thread preserves publish order.
class Broker {
 public:
  /// `metrics` (optional, must outlive the broker) receives published /
  /// delivered counters and the pending-queue depth gauge. The broker hop
  /// itself is recorded per transaction by the subscriber, from the message
  /// stamps, because the broker never decodes payloads.
  explicit Broker(BrokerOptions options = {},
                  obs::MetricsRegistry* metrics = nullptr);
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Handle owned by a subscriber; Pop() blocks until a message or shutdown.
  /// The in-process MessageSource (net::NetSubscription is the remote one).
  class Subscription : public MessageSource {
   public:
    explicit Subscription(size_t queue_capacity) : queue_(queue_capacity) {}

    /// Next message, or nullopt once the broker shut down and the queue
    /// drained.
    std::optional<Message> Pop() override { return queue_.Pop(); }

    /// Non-blocking variant.
    std::optional<Message> TryPop() override { return queue_.TryPop(); }

    /// Ends this subscription's stream: blocked Pop()s drain the queue and
    /// then see end-of-stream, without waiting for broker shutdown. Messages
    /// delivered after Close() are dropped. Idempotent.
    void Close() override { queue_.Close(); }

    size_t Pending() const override { return queue_.size(); }

   private:
    friend class Broker;
    BlockingQueue<Message> queue_;
  };

  /// Called by the delivery thread for every message on `topic`, after the
  /// in-process subscriptions got their copy — the hook a NetEndpoint uses
  /// to fan batches out to remote replicas. A fanout that blocks (bounded
  /// session queues, credit exhaustion downstream) blocks delivery, which
  /// fills pending_, which blocks Publish(): exactly the backpressure chain
  /// the wire path needs (DESIGN.md §13). Attach before publishing traffic;
  /// fanouts cannot be detached (the broker outlives none of them).
  using Fanout = std::function<void(const Message&)>;
  void AttachFanout(const std::string& topic, Fanout fanout);

  /// Registers a new subscriber on `topic`. The returned object lives until
  /// the broker is destroyed.
  Subscription* Subscribe(const std::string& topic);

  /// Publishes a message; delivery is asynchronous (FIFO per topic across
  /// all topics, single delivery thread). Fails after Shutdown().
  Status Publish(std::string topic, std::string payload);

  /// Blocks until every published message has been delivered.
  void Flush();

  /// Stops delivery; idempotent. Subscribers drain their queues then see
  /// end-of-stream.
  void Shutdown();

  int64_t published() const;
  int64_t delivered() const;

 private:
  void DeliveryLoop();

  const BrokerOptions options_;

  // analyze: lock-free(BlockingQueue is internally synchronized)
  BlockingQueue<Message> pending_;
  // analyze: lock-free(thread handle; started once, joined in Stop/dtor only)
  std::thread delivery_thread_;

  mutable check::Mutex mu_{"broker.mu"};
  std::map<std::string, std::vector<std::unique_ptr<Subscription>>> topics_
      TXREP_GUARDED_BY(mu_);
  std::map<std::string, std::vector<Fanout>> fanouts_ TXREP_GUARDED_BY(mu_);
  int64_t published_ TXREP_GUARDED_BY(mu_) = 0;
  int64_t delivered_ TXREP_GUARDED_BY(mu_) = 0;
  bool shutdown_ TXREP_GUARDED_BY(mu_) = false;

  check::CondVar flush_cv_{&mu_};

  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_published_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_delivered_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Gauge* g_queue_depth_ = nullptr;
};

}  // namespace txrep::mw

#endif  // TXREP_MW_BROKER_H_
