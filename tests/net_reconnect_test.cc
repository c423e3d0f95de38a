// Kill-and-reconnect across the wire: a RemoteReplica fed over socketpairs
// survives a hard connection loss mid-stream — server-side (DropSessions)
// or client-side (InjectDisconnect) — reconnects, resumes from its
// high-water LSN, dedups the replayed retention, and ends byte-identical to
// serial replay.

#include <memory>
#include <string>
#include <utility>

#include "common/clock.h"
#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "mw/broker.h"
#include "mw/publisher.h"
#include "net/endpoint.h"
#include "net/socket.h"
#include "codec/schema_codec.h"
#include "qt/query_translator.h"
#include "rel/database.h"
#include "rel/statement.h"
#include "test_util.h"
#include "txrep/remote_replica.h"

namespace txrep {
namespace {

using rel::Value;

/// Table + hash/range indexes + a mixed insert/update/delete workload, so
/// index maintenance rides every replicated transaction.
void BuildWorkload(rel::Database& db, int txns) {
  auto schema = rel::TableSchema::Create("S",
                                         {{"ID", rel::ValueType::kInt64},
                                          {"VAL", rel::ValueType::kInt64}},
                                         "ID");
  TXREP_ASSERT_OK(schema.status());
  TXREP_ASSERT_OK(db.CreateTable(std::move(*schema)));
  TXREP_ASSERT_OK(db.CreateHashIndex("S", "VAL"));
  TXREP_ASSERT_OK(db.CreateRangeIndex("S", "VAL"));
  for (int i = 0; i < txns; ++i) {
    std::vector<rel::Statement> statements;
    statements.push_back(rel::InsertStatement{
        "S", {}, {Value::Int(i), Value::Int(i % 7)}});
    if (i % 3 == 1) {
      statements.push_back(rel::UpdateStatement{
          "S",
          {{"VAL", Value::Int(i % 11)}},
          {rel::Predicate{"ID", rel::PredicateOp::kEq, Value::Int(i / 2),
                          {}}}});
    }
    if (i % 5 == 4) {
      statements.push_back(rel::DeleteStatement{
          "S",
          {rel::Predicate{"ID", rel::PredicateOp::kEq, Value::Int(i / 3),
                          {}}}});
    }
    TXREP_ASSERT_OK(db.ExecuteTransaction(statements).status());
  }
}

enum class KillSide { kServer, kClient };

void RunKillAndReconnect(KillSide side) {
  rel::Database db;
  const int kTxns = 60;
  BuildWorkload(db, kTxns);
  const uint64_t last_lsn = db.log().LastLsn();
  ASSERT_GE(last_lsn, static_cast<uint64_t>(kTxns));

  // Serial ground truth.
  qt::QueryTranslator translator(&db.catalog());
  kv::InMemoryKvNode serial_store;
  TXREP_ASSERT_OK(testing::ReplaySerial(db, translator, &serial_store));

  mw::Broker broker;
  net::EndpointOptions endpoint_options;
  endpoint_options.retention_capacity = 4096;
  net::NetEndpoint endpoint(&broker, endpoint_options);
  endpoint.SetCatalog(codec::EncodeCatalog(db.catalog()));
  struct Teardown {
    net::NetEndpoint* endpoint;
    mw::Broker* broker;
    ~Teardown() {
      endpoint->Stop();
      broker->Shutdown();
    }
  } teardown{&endpoint, &broker};

  RemoteReplicaOptions replica_options;
  replica_options.socket_factory = [&endpoint]() -> Result<net::Socket> {
    TXREP_ASSIGN_OR_RETURN(auto pair, net::Socket::CreatePair());
    TXREP_RETURN_IF_ERROR(endpoint.ServeSocket(std::move(pair.first)));
    return std::move(pair.second);
  };
  replica_options.subscription.reconnect_backoff_micros = 1000;
  RemoteReplica replica(std::move(replica_options));
  TXREP_ASSERT_OK(replica.Start());

  // The catalog crossed the wire, not the address space.
  EXPECT_EQ(replica.catalog().TableNames(), db.catalog().TableNames());

  mw::PublisherAgent publisher(&db.log(), &broker,
                               {.topic = "txrep.log", .batch_size = 4,
                                .start_after_lsn = 0});

  // Ship half, wait for it to apply, then pull the plug.
  const uint64_t kill_lsn = last_lsn / 2;
  while (publisher.shipped_lsn() < kill_lsn) {
    TXREP_ASSERT_OK(publisher.PumpOnce().status());
  }
  ASSERT_TRUE(replica.WaitForLsn(kill_lsn)) << replica.health().ToString();
  if (side == KillSide::kServer) {
    endpoint.DropSessions();
  } else {
    replica.subscription()->InjectDisconnect();
  }

  // Ship the rest; the replica must reconnect and catch up.
  TXREP_ASSERT_OK(publisher.PumpAll());
  ASSERT_TRUE(replica.WaitForLsn(last_lsn)) << replica.health().ToString();
  for (int i = 0; replica.subscription()->connects() < 2 && i < 5000; ++i) {
    SleepForMicros(1000);
  }
  EXPECT_GE(replica.subscription()->connects(), 2)
      << "connection was never killed and re-established";
  TXREP_ASSERT_OK(replica.health());

  testing::ExpectDumpsEqual(serial_store, replica.cluster());
  replica.Stop();
}

TEST(NetReconnectTest, SurvivesServerSideKill) {
  RunKillAndReconnect(KillSide::kServer);
}

TEST(NetReconnectTest, SurvivesClientSideKill) {
  RunKillAndReconnect(KillSide::kClient);
}

TEST(NetReconnectTest, FreshSubscriberAfterEvictionMustBootstrap) {
  // Retention window of 2 batches, 40 txns: by the time a fresh replica
  // dials, the early batches are gone — the endpoint must refuse rather
  // than serve a stream with a silent gap.
  rel::Database db;
  BuildWorkload(db, 40);

  mw::Broker broker;
  net::EndpointOptions endpoint_options;
  endpoint_options.retention_capacity = 2;
  net::NetEndpoint endpoint(&broker, endpoint_options);
  endpoint.SetCatalog(codec::EncodeCatalog(db.catalog()));
  struct Teardown {
    net::NetEndpoint* endpoint;
    mw::Broker* broker;
    ~Teardown() {
      endpoint->Stop();
      broker->Shutdown();
    }
  } teardown{&endpoint, &broker};

  mw::PublisherAgent publisher(&db.log(), &broker,
                               {.topic = "txrep.log", .batch_size = 4,
                                .start_after_lsn = 0});
  TXREP_ASSERT_OK(publisher.PumpAll());
  broker.Flush();
  for (int i = 0; endpoint.retained_floor_lsn() == 0 && i < 5000; ++i) {
    SleepForMicros(1000);
  }
  ASSERT_GT(endpoint.retained_floor_lsn(), 0u);

  RemoteReplicaOptions replica_options;
  replica_options.socket_factory = [&endpoint]() -> Result<net::Socket> {
    TXREP_ASSIGN_OR_RETURN(auto pair, net::Socket::CreatePair());
    TXREP_RETURN_IF_ERROR(endpoint.ServeSocket(std::move(pair.first)));
    return std::move(pair.second);
  };
  RemoteReplica replica(std::move(replica_options));
  Status status = replica.Start();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("bootstrap required"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace txrep
