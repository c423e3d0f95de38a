// Publisher agent + subscriber agent end-to-end over the broker.

#include <sys/resource.h>

#include <atomic>

#include "common/clock.h"
#include "gtest/gtest.h"
#include "mw/broker.h"
#include "mw/publisher.h"
#include "mw/subscriber.h"
#include "rel/txlog.h"
#include "test_util.h"

namespace txrep::mw {
namespace {

rel::LogOp MakeOp(int64_t pk) {
  return rel::LogOp{rel::LogOpType::kInsert, "T", rel::Value::Int(pk),
                    {rel::Value::Int(pk)}};
}

TEST(PublisherTest, PumpOnceBatchesUpToLimit) {
  rel::TxLog log;
  for (int i = 0; i < 25; ++i) log.Append({MakeOp(i)});
  Broker broker;
  Broker::Subscription* sub = broker.Subscribe("txrep.log");
  PublisherAgent publisher(&log, &broker, {.topic = "txrep.log",
                                           .batch_size = 10,
                                           .start_after_lsn = 0});
  EXPECT_EQ(*publisher.PumpOnce(), 10u);
  EXPECT_EQ(*publisher.PumpOnce(), 10u);
  EXPECT_EQ(*publisher.PumpOnce(), 5u);
  EXPECT_EQ(*publisher.PumpOnce(), 0u);
  EXPECT_EQ(publisher.shipped_lsn(), 25u);
  EXPECT_EQ(publisher.messages_published(), 3);
  broker.Flush();
  EXPECT_EQ(sub->Pending(), 3u);
}

TEST(PublisherTest, StartAfterLsnSkipsSnapshot) {
  rel::TxLog log;
  for (int i = 0; i < 10; ++i) log.Append({MakeOp(i)});
  Broker broker;
  PublisherAgent publisher(&log, &broker, {.topic = "t",
                                           .batch_size = 100,
                                           .start_after_lsn = 7});
  EXPECT_EQ(*publisher.PumpOnce(), 3u);
}

TEST(PublisherTest, PumpAllShipsEverything) {
  rel::TxLog log;
  for (int i = 0; i < 37; ++i) log.Append({MakeOp(i)});
  Broker broker;
  PublisherAgent publisher(&log, &broker,
                           {.topic = "t", .batch_size = 5,
                            .start_after_lsn = 0});
  TXREP_ASSERT_OK(publisher.PumpAll());
  EXPECT_EQ(publisher.shipped_lsn(), 37u);
  EXPECT_EQ(publisher.messages_published(), 8);  // ceil(37/5).
}

TEST(SubscriberTest, ReceivesTransactionsInLsnOrder) {
  rel::TxLog log;
  for (int i = 1; i <= 50; ++i) log.Append({MakeOp(i)});
  Broker broker;
  std::vector<uint64_t> received;
  std::mutex mu;
  SubscriberAgent subscriber(&broker, "t",
                             [&](rel::LogTransaction txn) {
                               std::lock_guard<std::mutex> lock(mu);
                               received.push_back(txn.lsn);
                               return Status::OK();
                             });
  PublisherAgent publisher(&log, &broker,
                           {.topic = "t", .batch_size = 7,
                            .start_after_lsn = 0});
  TXREP_ASSERT_OK(publisher.PumpAll());
  ASSERT_TRUE(subscriber.WaitForLsn(50));
  broker.Shutdown();
  subscriber.Stop();
  ASSERT_EQ(received.size(), 50u);
  for (size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i], i + 1);
  }
  EXPECT_EQ(subscriber.applied_lsn(), 50u);
  TXREP_ASSERT_OK(subscriber.health());
}

TEST(SubscriberTest, SinkErrorTurnsUnhealthy) {
  rel::TxLog log;
  log.Append({MakeOp(1)});
  Broker broker;
  SubscriberAgent subscriber(&broker, "t", [](rel::LogTransaction) {
    return Status::Corruption("sink rejects");
  });
  PublisherAgent publisher(&log, &broker,
                           {.topic = "t", .batch_size = 10,
                            .start_after_lsn = 0});
  TXREP_ASSERT_OK(publisher.PumpAll());
  EXPECT_FALSE(subscriber.WaitForLsn(1));
  EXPECT_TRUE(subscriber.health().IsCorruption());
  broker.Shutdown();
}

TEST(SubscriberTest, MalformedPayloadTurnsUnhealthy) {
  Broker broker;
  SubscriberAgent subscriber(&broker, "t", [](rel::LogTransaction) {
    return Status::OK();
  });
  TXREP_ASSERT_OK(broker.Publish("t", "this is not a log batch"));
  EXPECT_FALSE(subscriber.WaitForLsn(1));
  EXPECT_TRUE(subscriber.health().IsCorruption());
  broker.Shutdown();
}

TEST(PublisherTest, BackgroundPumpShipsNewCommits) {
  rel::TxLog log;
  Broker broker;
  std::atomic<int> received{0};
  SubscriberAgent subscriber(&broker, "t", [&](rel::LogTransaction) {
    ++received;
    return Status::OK();
  });
  PublisherAgent publisher(&log, &broker,
                           {.topic = "t", .batch_size = 10,
                            .start_after_lsn = 0});
  publisher.Start();
  for (int i = 0; i < 20; ++i) log.Append({MakeOp(i)});
  ASSERT_TRUE(subscriber.WaitForLsn(20));
  // The pump is idle now; a later commit must wake it.
  SleepForMicros(5'000);
  log.Append({MakeOp(20)});
  ASSERT_TRUE(subscriber.WaitForLsn(21));
  publisher.Stop();
  broker.Shutdown();
  EXPECT_EQ(received.load(), 21);
}

TEST(PublisherTest, StopReturnsFromAnIdlePump) {
  // A lost wakeup would leave Stop() joining a pump parked forever.
  rel::TxLog log;
  Broker broker;
  PublisherAgent publisher(&log, &broker);
  for (uint64_t i = 1; i <= 200; ++i) {
    publisher.Start();
    log.Append({MakeOp(static_cast<int64_t>(i))});
    if (i % 2 == 0) {
      // Let the pump ship and park before stopping it; odd cycles race
      // Stop() against the pump instead.
      for (int spins = 0; publisher.shipped_lsn() < i && spins < 20'000;
           ++spins) {
        SleepForMicros(50);
      }
      EXPECT_EQ(publisher.shipped_lsn(), i);
    }
    publisher.Stop();
  }
  TXREP_ASSERT_OK(publisher.PumpAll());
  EXPECT_EQ(publisher.shipped_lsn(), 200u);
  broker.Shutdown();
}

int64_t ProcessCpuMicros() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1'000'000 +
         usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
}

TEST(PublisherTest, FailedPublishDoesNotSpin) {
  // Once the broker is shut down every publish fails. The pump must then
  // wait for the next commit, not retry in a loop.
  rel::TxLog log;
  Broker broker;
  PublisherAgent publisher(&log, &broker);
  publisher.Start();
  broker.Shutdown();
  for (int i = 0; i < 100; ++i) log.Append({MakeOp(i)});
  SleepForMicros(20'000);  // Let the pump fail on the backlog.

  const int64_t cpu_before = ProcessCpuMicros();
  SleepForMicros(200'000);
  const int64_t cpu_used = ProcessCpuMicros() - cpu_before;
  EXPECT_LT(cpu_used, 50'000) << "publisher pump burned CPU while idle";
  EXPECT_EQ(publisher.shipped_lsn(), 0u);
  publisher.Stop();
}

}  // namespace
}  // namespace txrep::mw
