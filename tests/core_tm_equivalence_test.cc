// The golden invariant of the paper: concurrent replay through the
// Transaction Manager must produce a replica state *byte-identical* to serial
// replay in the execution-defined order, for any workload, thread count and
// conflict level — and that state must logically match the database.

#include <set>

#include "common/random.h"
#include "core/transaction_manager.h"
#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "kv/kv_cluster.h"
#include "qt/query_translator.h"
#include "rel/database.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace txrep::core {
namespace {

using rel::Value;

struct EquivalenceCase {
  uint64_t seed;
  int threads;
  int hot_rows;     // Updates/deletes concentrate on this many rows.
  int txns;
  int64_t service_micros;
  const char* name;
};

std::ostream& operator<<(std::ostream& os, const EquivalenceCase& c) {
  return os << c.name;
}

class EquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

/// Runs a randomized insert/update/delete workload (with hash + range index
/// maintenance) against the database.
void RunRandomWorkload(rel::Database& db, uint64_t seed, int hot_rows,
                       int txns) {
  Result<rel::TableSchema> schema =
      rel::TableSchema::Create("R",
                               {{"ID", rel::ValueType::kInt64},
                                {"VAL", rel::ValueType::kInt64},
                                {"COST", rel::ValueType::kDouble}},
                               "ID");
  TXREP_ASSERT_OK(schema.status());
  TXREP_ASSERT_OK(db.CreateTable(*schema));
  TXREP_ASSERT_OK(db.CreateHashIndex("R", "COST"));
  TXREP_ASSERT_OK(db.CreateRangeIndex("R", "COST"));

  Random rng(seed);
  std::set<int64_t> live;
  int64_t next_id = 1;

  // Seed population.
  for (int i = 0; i < hot_rows; ++i) {
    const int64_t id = next_id++;
    TXREP_ASSERT_OK(
        db.ExecuteTransaction(
              {rel::InsertStatement{
                  "R",
                  {},
                  {Value::Int(id), Value::Int(0),
                   Value::Real(static_cast<double>(rng.Uniform(10)))}}})
            .status());
    live.insert(id);
  }

  auto random_live = [&]() -> int64_t {
    auto it = live.lower_bound(static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(next_id))));
    if (it == live.end()) it = live.begin();
    return *it;
  };

  for (int t = 0; t < txns; ++t) {
    std::vector<rel::Statement> stmts;
    const int ops = 1 + static_cast<int>(rng.Uniform(3));
    for (int o = 0; o < ops; ++o) {
      const uint64_t pick = rng.Uniform(10);
      if (pick < 3 || live.empty()) {
        const int64_t id = next_id++;
        stmts.push_back(rel::InsertStatement{
            "R",
            {},
            {Value::Int(id), Value::Int(static_cast<int64_t>(t)),
             Value::Real(static_cast<double>(rng.Uniform(10)))}});
        live.insert(id);
      } else if (pick < 8) {
        stmts.push_back(rel::UpdateStatement{
            "R",
            {{"VAL", Value::Int(static_cast<int64_t>(rng.Uniform(1000)))},
             {"COST", Value::Real(static_cast<double>(rng.Uniform(10)))}},
            {rel::Predicate{"ID", rel::PredicateOp::kEq,
                            Value::Int(random_live()), {}}}});
      } else {
        const int64_t id = random_live();
        stmts.push_back(rel::DeleteStatement{
            "R", {rel::Predicate{"ID", rel::PredicateOp::kEq, Value::Int(id),
                                 {}}}});
        live.erase(id);
      }
    }
    TXREP_ASSERT_OK(db.ExecuteTransaction(stmts).status());
  }
}

TEST_P(EquivalenceTest, ConcurrentReplayEqualsSerialReplay) {
  const EquivalenceCase& c = GetParam();
  rel::Database db;
  RunRandomWorkload(db, c.seed, c.hot_rows, c.txns);

  qt::QueryTranslator translator(&db.catalog(), {.max_node_keys = 8});

  kv::KvNodeOptions node_options;
  node_options.service_time_micros = c.service_micros;
  kv::InMemoryKvNode serial_store(node_options);
  TXREP_ASSERT_OK(
      testing::ReplaySerial(db, translator, &serial_store));

  kv::InMemoryKvNode concurrent_store(node_options);
  TmOptions tm_options;
  tm_options.top_threads = c.threads;
  tm_options.bottom_threads = c.threads;
  TmStats stats;
  TXREP_ASSERT_OK(testing::ReplayConcurrent(db, translator, &concurrent_store,
                                            tm_options, &stats));

  testing::ExpectDumpsEqual(serial_store, concurrent_store);
  testing::VerifyReplicaMatchesDatabase(concurrent_store, db, translator);
  EXPECT_EQ(stats.completed, static_cast<int64_t>(db.log().size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EquivalenceTest,
    ::testing::Values(
        EquivalenceCase{1, 4, 50, 200, 0, "seed1_t4_lowconflict"},
        EquivalenceCase{2, 8, 50, 200, 0, "seed2_t8_lowconflict"},
        EquivalenceCase{3, 20, 50, 200, 0, "seed3_t20_lowconflict"},
        EquivalenceCase{4, 4, 3, 200, 0, "seed4_t4_hotrows"},
        EquivalenceCase{5, 8, 3, 200, 0, "seed5_t8_hotrows"},
        EquivalenceCase{6, 20, 3, 200, 0, "seed6_t20_hotrows"},
        EquivalenceCase{7, 8, 1, 150, 0, "seed7_t8_singlehot"},
        EquivalenceCase{8, 8, 20, 150, 100, "seed8_t8_slowstore"},
        EquivalenceCase{9, 16, 5, 150, 50, "seed9_t16_hot_slowstore"},
        EquivalenceCase{10, 2, 10, 150, 0, "seed10_t2_narrow"}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return info.param.name;
    });

TEST(EquivalenceSyntheticTest, PaperSyntheticWorkloadEquivalence) {
  // The paper's own synthetic conflict workload at a hostile setting.
  rel::Database db;
  workload::SyntheticWorkload workload(
      {.num_items = 100, .hot_range = 5, .seed = 77});
  TXREP_ASSERT_OK(workload.CreateSchema(db));
  TXREP_ASSERT_OK(workload.Populate(db));
  TXREP_ASSERT_OK(workload.Run(db, 400));

  qt::QueryTranslator translator(&db.catalog(), {});
  kv::InMemoryKvNode serial_store;
  TXREP_ASSERT_OK(testing::ReplaySerial(db, translator, &serial_store));

  kv::KvCluster cluster({.num_nodes = 5, .node = {}});
  TmOptions options;
  options.top_threads = 20;
  options.bottom_threads = 20;
  TXREP_ASSERT_OK(
      testing::ReplayConcurrent(db, translator, &cluster, options, nullptr));
  testing::ExpectDumpsEqual(serial_store, cluster);
  testing::VerifyReplicaMatchesDatabase(cluster, db, translator);
}

TEST(EquivalenceMultiTableTest, InterleavedSameRowChainsEqualSerial) {
  // Two tables, each with one row updated over and over, the updates
  // alternating between the tables: every transaction conflicts with the
  // one two positions back and with none on the other table.
  rel::Database db;
  for (const char* name : {"T1", "T2"}) {
    Result<rel::TableSchema> schema = rel::TableSchema::Create(
        name, {{"ID", rel::ValueType::kInt64}, {"V", rel::ValueType::kInt64}},
        "ID");
    TXREP_ASSERT_OK(schema.status());
    TXREP_ASSERT_OK(db.CreateTable(*schema));
    TXREP_ASSERT_OK(
        db.ExecuteTransaction(
              {rel::InsertStatement{name, {}, {Value::Int(1), Value::Int(0)}}})
            .status());
  }
  for (int i = 0; i < 100; ++i) {
    TXREP_ASSERT_OK(
        db.ExecuteTransaction(
              {rel::UpdateStatement{
                  i % 2 == 0 ? "T1" : "T2",
                  {{"V", Value::Int(i)}},
                  {rel::Predicate{"ID", rel::PredicateOp::kEq, Value::Int(1),
                                  {}}}}})
            .status());
  }

  qt::QueryTranslator translator(&db.catalog(), {});
  kv::InMemoryKvNode serial_store, concurrent_store;
  TXREP_ASSERT_OK(testing::ReplaySerial(db, translator, &serial_store));
  TmOptions options;
  options.top_threads = 16;
  options.bottom_threads = 16;
  TmStats stats;
  TXREP_ASSERT_OK(testing::ReplayConcurrent(db, translator, &concurrent_store,
                                            options, &stats));
  testing::ExpectDumpsEqual(serial_store, concurrent_store);
  testing::VerifyReplicaMatchesDatabase(concurrent_store, db, translator);
  EXPECT_EQ(stats.completed, static_cast<int64_t>(db.log().size()));
}

TEST(EquivalenceSyntheticTest, RepeatedReplayIsDeterministic) {
  rel::Database db;
  workload::SyntheticWorkload workload(
      {.num_items = 50, .hot_range = 10, .seed = 5});
  TXREP_ASSERT_OK(workload.CreateSchema(db));
  TXREP_ASSERT_OK(workload.Populate(db));
  TXREP_ASSERT_OK(workload.Run(db, 200));

  qt::QueryTranslator translator(&db.catalog(), {});
  kv::InMemoryKvNode a, b;
  TmOptions options;
  options.top_threads = 8;
  options.bottom_threads = 8;
  TXREP_ASSERT_OK(testing::ReplayConcurrent(db, translator, &a, options));
  TXREP_ASSERT_OK(testing::ReplayConcurrent(db, translator, &b, options));
  testing::ExpectDumpsEqual(a, b);
}

}  // namespace
}  // namespace txrep::core
