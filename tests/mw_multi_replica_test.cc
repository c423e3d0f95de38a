// Paper Appendix A: "we can add more subscriber agents to provide multiple
// replicas without putting any extra load on the publisher agent". Two
// independent replica stacks (subscriber + TM + cluster) hang off one
// broker topic; both must converge to the same state as serial replay.

#include "core/transaction_manager.h"
#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "mw/broker.h"
#include "mw/publisher.h"
#include "mw/subscriber.h"
#include "qt/query_translator.h"
#include "rel/database.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace txrep::mw {
namespace {

/// One replica-side stack: cluster + TM + subscriber agent.
struct ReplicaStack {
  ReplicaStack(Broker* broker, const std::string& topic,
               const qt::QueryTranslator* translator)
      : tm(&store, translator,
           core::TmOptions{.top_threads = 6, .bottom_threads = 6}),
        subscriber(broker, topic, [this](rel::LogTransaction txn) {
          tm.SubmitUpdate(std::move(txn));
          return tm.health();
        }) {}

  kv::InMemoryKvNode store;
  core::TransactionManager tm;
  SubscriberAgent subscriber;
};

TEST(MultiReplicaTest, TwoReplicasConvergeIdentically) {
  rel::Database db;
  workload::SyntheticWorkload workload(
      {.num_items = 60, .hot_range = 15, .seed = 41});
  TXREP_ASSERT_OK(workload.CreateSchema(db));
  TXREP_ASSERT_OK(workload.Populate(db));

  qt::QueryTranslator translator(&db.catalog(), {});
  Broker broker;
  auto replica_a = std::make_unique<ReplicaStack>(&broker, "log", &translator);
  auto replica_b = std::make_unique<ReplicaStack>(&broker, "log", &translator);
  TXREP_ASSERT_OK(translator.InitializeIndexes(&replica_a->store));
  TXREP_ASSERT_OK(translator.InitializeIndexes(&replica_b->store));

  // Run the update stream and ship it.
  TXREP_ASSERT_OK(workload.Run(db, 250));
  PublisherAgent publisher(&db.log(), &broker,
                           {.topic = "log", .batch_size = 20,
                            .start_after_lsn = 0});
  TXREP_ASSERT_OK(publisher.PumpAll());
  broker.Flush();
  const uint64_t target = db.log().LastLsn();
  ASSERT_TRUE(replica_a->subscriber.WaitForLsn(target));
  ASSERT_TRUE(replica_b->subscriber.WaitForLsn(target));
  TXREP_ASSERT_OK(replica_a->tm.WaitIdle());
  TXREP_ASSERT_OK(replica_b->tm.WaitIdle());

  // Reference: serial replay (population commits included — the replicas
  // consumed the full log from LSN 0 too).
  kv::InMemoryKvNode reference;
  TXREP_ASSERT_OK(testing::ReplaySerial(db, translator, &reference));

  testing::ExpectDumpsEqual(reference, replica_a->store);
  testing::ExpectDumpsEqual(replica_a->store, replica_b->store);

  // Publisher shipped each message once, regardless of subscriber count.
  EXPECT_EQ(broker.published(), publisher.messages_published());

  broker.Shutdown();
  replica_a->subscriber.Stop();
  replica_b->subscriber.Stop();
}

TEST(MultiReplicaTest, LateSubscriberMissesEarlierMessages) {
  // Topic semantics (not a queue): a subscriber only sees messages published
  // after it subscribed — late replicas must bootstrap from a snapshot, which
  // is exactly why TxRepSystem does snapshot-then-ship.
  rel::Database db;
  workload::SyntheticWorkload workload(
      {.num_items = 10, .hot_range = 10, .seed = 1});
  TXREP_ASSERT_OK(workload.CreateSchema(db));
  TXREP_ASSERT_OK(workload.Populate(db));
  TXREP_ASSERT_OK(workload.Run(db, 10));

  Broker broker;
  PublisherAgent publisher(&db.log(), &broker,
                           {.topic = "log", .batch_size = 100,
                            .start_after_lsn = 0});
  TXREP_ASSERT_OK(publisher.PumpAll());
  broker.Flush();

  int received = 0;
  SubscriberAgent late(&broker, "log", [&](rel::LogTransaction) {
    ++received;
    return Status::OK();
  });
  TXREP_ASSERT_OK(workload.Run(db, 5));
  TXREP_ASSERT_OK(publisher.PumpAll());
  broker.Flush();
  ASSERT_TRUE(late.WaitForLsn(db.log().LastLsn()));
  EXPECT_EQ(received, 5);  // Only the post-subscription stream.
  broker.Shutdown();
  late.Stop();
}

}  // namespace
}  // namespace txrep::mw
