// Quickstart: the whole TxRep pipeline in ~60 lines.
//
//   relational DB  --log-->  publisher --broker--> subscriber
//                                --> Transaction Manager --> KV replica
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <string>

#include "obs/exporters.h"
#include "sql/interpreter.h"
#include "txrep/system.h"

namespace {

void Check(const txrep::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

void PrintRows(const char* label,
               const std::vector<txrep::rel::Row>& rows) {
  std::printf("%s (%zu rows)\n", label, rows.size());
  for (const txrep::rel::Row& row : rows) {
    std::printf("  %s\n", txrep::rel::RowToString(row).c_str());
  }
}

void WriteFile(const char* path, const std::string& content) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fputs(content.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main() {
  // 1. Stand up the hybrid deployment: a relational database plus a
  //    5-node key-value replica, connected by the replication middleware.
  txrep::TxRepOptions options;
  options.cluster.num_nodes = 5;
  txrep::TxRepSystem sys(options);

  // 2. Create schema + initial data on the *database* side (plain SQL).
  Check(txrep::sql::ExecuteSql(sys.database(), R"sql(
      CREATE TABLE ITEM (I_ID INT PRIMARY KEY, I_TITLE VARCHAR(40),
                         I_COST DOUBLE);
      CREATE INDEX ON ITEM (I_TITLE);        -- hash index on the replica
      CREATE RANGE INDEX ON ITEM (I_COST);   -- B-link tree on the replica
      INSERT INTO ITEM VALUES (1, 'Database Systems', 89.50);
      INSERT INTO ITEM VALUES (2, 'Distributed Algorithms', 75.00);
      INSERT INTO ITEM VALUES (3, 'Key-Value Stores', 42.00);
    )sql").status(),
        "schema + population");

  // 3. Start replication: snapshot copy, then continuous log shipping.
  Check(sys.Start(), "Start");

  // 4. Run read/write transactions against the database...
  Check(txrep::sql::ExecuteSql(sys.database(), R"sql(
      UPDATE ITEM SET I_COST = 79.99 WHERE I_ID = 1;
      INSERT INTO ITEM VALUES (4, 'Concurrency Control', 55.25);
      DELETE FROM ITEM WHERE I_ID = 2;
    )sql").status(),
        "write workload");

  // 5. ...drain the pipeline (in production the replica simply lags a bit).
  Check(sys.SyncToLatest(), "SyncToLatest");
  std::printf("replica caught up to LSN %llu; KV store holds %zu objects\n",
              static_cast<unsigned long long>(sys.replica_lsn()),
              sys.replica().Size());

  // 6. Serve the read-only workload from the replica.
  auto by_pk = sys.QueryReplica(txrep::rel::SelectStatement{
      "ITEM",
      {},
      {txrep::rel::Predicate{"I_ID", txrep::rel::PredicateOp::kEq,
                             txrep::rel::Value::Int(1)}}});
  Check(by_pk.status(), "point query");
  PrintRows("point query I_ID = 1", *by_pk);

  auto by_cost = sys.QueryReplica(txrep::rel::SelectStatement{
      "ITEM",
      {},
      {txrep::rel::Predicate{"I_COST", txrep::rel::PredicateOp::kBetween,
                             txrep::rel::Value::Real(40.0),
                             txrep::rel::Value::Real(60.0)}}});
  Check(by_cost.status(), "range query");
  PrintRows("range query 40 <= I_COST <= 60", *by_cost);

  auto stats = sys.tm_stats();
  std::printf(
      "TM stats: %lld update txns completed, %lld conflicts, %lld restarts\n",
      static_cast<long long>(stats.completed),
      static_cast<long long>(stats.conflicts),
      static_cast<long long>(stats.restarts));

  // 7. Observability: every pipeline hop (publish, broker, recv,
  //    commit_eval, apply) and their sum e2e recorded a latency histogram;
  //    queue depths and per-node KV op counters ride along. Same snapshot,
  //    three formats.
  const txrep::obs::MetricsSnapshot snapshot = sys.metrics().Snapshot();
  std::printf("\n--- metrics (text) ---\n%s",
              txrep::obs::ToText(snapshot).c_str());
  WriteFile("quickstart.metrics.json", txrep::obs::ToJson(snapshot));
  WriteFile("quickstart.metrics.prom", txrep::obs::ToPrometheus(snapshot));
  return 0;
}
