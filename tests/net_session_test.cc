// NetEndpoint <-> NetSubscription sessions over socketpairs: handshake with
// catalog hand-off, subscription rejection paths, credit-based backpressure
// bounding in-flight batches, and orderly server shutdown.

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "gtest/gtest.h"
#include "mw/broker.h"
#include "mw/publisher.h"
#include "mw/subscriber.h"
#include "net/endpoint.h"
#include "net/socket.h"
#include "net/subscription.h"
#include "rel/txlog.h"
#include "test_util.h"

namespace txrep::net {
namespace {

rel::LogOp MakeOp(int64_t pk) {
  return rel::LogOp{rel::LogOpType::kInsert, "T", rel::Value::Int(pk),
                    {rel::Value::Int(pk)}};
}

/// Broker + endpoint with teardown in the only safe order: sessions first,
/// then the broker's delivery thread (it calls into the endpoint's fanout).
struct WireRig {
  mw::Broker broker;
  NetEndpoint endpoint;

  explicit WireRig(EndpointOptions options = {})
      : endpoint(&broker, std::move(options)) {}

  ~WireRig() {
    endpoint.Stop();
    broker.Shutdown();
  }

  /// Dials by socketpair: hands one end to the endpoint, one to the caller.
  NetSubscription::SocketFactory Factory() {
    return [this]() -> Result<Socket> {
      TXREP_ASSIGN_OR_RETURN(auto pair, Socket::CreatePair());
      TXREP_RETURN_IF_ERROR(endpoint.ServeSocket(std::move(pair.first)));
      return std::move(pair.second);
    };
  }
};

TEST(NetSessionTest, HandshakeCarriesCatalogAndStreamsInOrder) {
  rel::TxLog log;
  for (int i = 1; i <= 40; ++i) log.Append({MakeOp(i)});

  WireRig rig;
  rig.endpoint.SetCatalog("opaque-catalog-bytes");

  NetSubscription subscription(rig.Factory());
  TXREP_ASSERT_OK(subscription.WaitConnected());
  EXPECT_EQ(subscription.catalog(), "opaque-catalog-bytes");
  EXPECT_EQ(rig.endpoint.live_sessions(), 1u);

  std::vector<uint64_t> received;
  std::mutex mu;
  mw::SubscriberAgent agent(&subscription, [&](rel::LogTransaction txn) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(txn.lsn);
    return Status::OK();
  });
  mw::PublisherAgent publisher(&log, &rig.broker,
                               {.topic = "txrep.log", .batch_size = 7,
                                .start_after_lsn = 0});
  TXREP_ASSERT_OK(publisher.PumpAll());
  ASSERT_TRUE(agent.WaitForLsn(40));
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(received.size(), 40u);
    for (size_t i = 0; i < received.size(); ++i) {
      EXPECT_EQ(received[i], i + 1);
    }
  }
  EXPECT_EQ(rig.endpoint.last_published_lsn(), 40u);
  TXREP_EXPECT_OK(subscription.health());
  subscription.Close();
  agent.Stop();
}

TEST(NetSessionTest, RejectsWrongTopic) {
  WireRig rig;
  NetSubscriptionOptions options;
  options.topic = "not-the-topic";
  NetSubscription subscription(rig.Factory(), options);
  Status status = subscription.WaitConnected();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("unknown topic"), std::string::npos)
      << status.ToString();
}

TEST(NetSessionTest, RejectsResumeBelowRetentionFloor) {
  WireRig rig;
  rig.endpoint.SetRetentionFloor(25);
  NetSubscriptionOptions options;
  options.resume_after_lsn = 10;  // Below the floor: the gap is unservable.
  NetSubscription subscription(rig.Factory(), options);
  Status status = subscription.WaitConnected();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("bootstrap required"), std::string::npos)
      << status.ToString();
  // A resume at the floor itself is fine (everything <= floor is applied).
  NetSubscriptionOptions resumed;
  resumed.resume_after_lsn = 25;
  NetSubscription ok_subscription(rig.Factory(), resumed);
  TXREP_EXPECT_OK(ok_subscription.WaitConnected());
}

TEST(NetSessionTest, CreditWindowBoundsInFlightBatches) {
  rel::TxLog log;
  const int kTxns = 30;
  for (int i = 1; i <= kTxns; ++i) log.Append({MakeOp(i)});

  WireRig rig;
  NetSubscriptionOptions options;
  options.initial_credits = 2;
  options.queue_capacity = 1;
  NetSubscription subscription(rig.Factory(), options);
  TXREP_ASSERT_OK(subscription.WaitConnected());

  mw::PublisherAgent publisher(&log, &rig.broker,
                               {.topic = "txrep.log", .batch_size = 1,
                                .start_after_lsn = 0});
  TXREP_ASSERT_OK(publisher.PumpAll());

  // Nobody consumes: the client stops crediting once its bounded queue is
  // full, so only the credit window (plus the queue slot) can cross the
  // wire. The other ~25 batches must stay parked server-side.
  SleepForMicros(200'000);
  EXPECT_LE(subscription.delivered_lsn(), 5u);

  // Drain: the credit flow restarts and everything arrives, in order.
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(subscription.Pop().has_value()) << "message " << i;
  }
  for (int i = 0; subscription.delivered_lsn() < kTxns && i < 5000; ++i) {
    SleepForMicros(1000);
  }
  EXPECT_EQ(subscription.delivered_lsn(), static_cast<uint64_t>(kTxns));
  TXREP_EXPECT_OK(subscription.health());
}

TEST(NetSessionTest, ServerStopEndsStreamCleanly) {
  rel::TxLog log;
  for (int i = 1; i <= 10; ++i) log.Append({MakeOp(i)});

  auto rig = std::make_unique<WireRig>();
  NetSubscription subscription(rig->Factory());
  TXREP_ASSERT_OK(subscription.WaitConnected());
  mw::PublisherAgent publisher(&log, &rig->broker,
                               {.topic = "txrep.log", .batch_size = 5,
                                .start_after_lsn = 0});
  TXREP_ASSERT_OK(publisher.PumpAll());
  for (int i = 0; subscription.delivered_lsn() < 10 && i < 5000; ++i) {
    SleepForMicros(1000);
  }
  EXPECT_EQ(subscription.delivered_lsn(), 10u);

  rig->endpoint.Stop();
  // Orderly kBye: queued messages drain, then end-of-stream; healthy still.
  int drained = 0;
  while (subscription.Pop().has_value()) ++drained;
  EXPECT_EQ(drained, 2);  // ceil(10 / 5) batches.
  TXREP_EXPECT_OK(subscription.health());
}

}  // namespace
}  // namespace txrep::net
