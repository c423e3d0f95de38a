#include "check/schedule_explorer.h"

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "blink/blink_tree.h"
#include "check/invariants.h"
#include "codec/kv_keys.h"
#include "codec/schema_codec.h"
#include "common/clock.h"
#include "common/random.h"
#include "core/serial_applier.h"
#include "core/transaction_manager.h"
#include "kv/inmemory_node.h"
#include "kv/kv_cluster.h"
#include "mw/broker.h"
#include "mw/publisher.h"
#include "net/endpoint.h"
#include "net/socket.h"
#include "qt/query_translator.h"
#include "recov/checkpoint.h"
#include "recov/io.h"
#include "rel/database.h"
#include "rel/statement.h"
#include "trace/tracer.h"
#include "txrep/remote_replica.h"
#include "workload/tpcc.h"

namespace txrep::check {

namespace {

using rel::Value;

/// Everything one seed determines. Deriving the whole configuration from the
/// seed keeps a failure reproducible from its seed alone.
struct ScheduleConfig {
  int hot_rows;
  int threads;
  int64_t service_micros;
  double failure_rate;
  size_t gc_threshold;
  size_t max_node_keys;
  double read_only_rate;
};

/// Batched-apply cluster shape, derived from a private stream (seed ^
/// constant) so enabling the mode does not perturb the main schedule
/// derivation.
struct BatchConfig {
  int num_nodes;
  int dispatch_threads;
};

BatchConfig DeriveBatchConfig(uint64_t seed) {
  Random rng(seed ^ 0xb47c0a5ed15b47c0ULL);
  BatchConfig config;
  config.num_nodes = 1 + static_cast<int>(rng.Uniform(5));
  // 0 = inline sequential fan-out; >0 = parallel dispatch pool.
  config.dispatch_threads = static_cast<int>(rng.Uniform(5));
  return config;
}

/// TPC-C-lite knobs, derived from a private stream (seed ^ constant) like
/// the batch/trace/wire knobs: enabling tpcc mode never perturbs how other
/// modes interpret a seed.
workload::TpccOptions DeriveTpccOptions(uint64_t seed) {
  Random rng(seed ^ 0x7bccc0de5eed2015ULL);
  workload::TpccOptions options;
  options.seed = rng.NextUint64();
  options.scale.warehouses = 1 + static_cast<int>(rng.Uniform(3));
  options.scale.districts_per_warehouse = 2 + static_cast<int>(rng.Uniform(3));
  options.scale.customers_per_district = 4 + static_cast<int>(rng.Uniform(8));
  options.scale.items = 8 + static_cast<int>(rng.Uniform(16));
  options.scale.initial_orders_per_district =
      1 + static_cast<int>(rng.Uniform(3));
  options.scale.max_order_lines = 2 + static_cast<int>(rng.Uniform(4));
  options.warehouse_zipf_theta =
      rng.Bernoulli(0.5) ? 0.0 : 0.5 + 0.4 * rng.NextDouble();
  options.remote_line_fraction = 0.3 * rng.NextDouble();
  // Randomized NewOrder/Payment split; the explorer replays the update log,
  // so the read transactions stay out of the stream.
  options.mix.new_order = 30 + static_cast<int>(rng.Uniform(40));
  options.mix.payment = 30 + static_cast<int>(rng.Uniform(40));
  options.mix.order_status = 0;
  options.mix.stock_level = 0;
  return options;
}

ScheduleConfig DeriveConfig(Random& rng) {
  ScheduleConfig config;
  config.hot_rows = 1 + static_cast<int>(rng.Uniform(8));
  config.threads = 1 + static_cast<int>(rng.Uniform(8));
  // Most schedules run at memory speed (tight interleavings); some add
  // service-time jitter so apply-stage overlap gets explored too.
  config.service_micros =
      rng.Bernoulli(0.3) ? static_cast<int64_t>(rng.Uniform(40)) : 0;
  // Occasional transient failures exercise the execution-restart path.
  config.failure_rate = rng.Bernoulli(0.25) ? 0.02 : 0.0;
  config.gc_threshold = 1 + rng.Uniform(32);  // Small: GC races with commits.
  config.max_node_keys = 4 + rng.Uniform(8);
  config.read_only_rate = rng.Bernoulli(0.5) ? 0.2 : 0.0;
  return config;
}

/// Generates the seed's workload into `db`: a table with one hash and one
/// range index (so index maintenance joins every conflict set), a seed
/// population, then randomized multi-statement transactions concentrated on
/// the hot rows.
Status GenerateWorkload(rel::Database& db, Random& rng,
                        const ScheduleConfig& config, int txns) {
  TXREP_ASSIGN_OR_RETURN(
      rel::TableSchema schema,
      rel::TableSchema::Create("S",
                               {{"ID", rel::ValueType::kInt64},
                                {"VAL", rel::ValueType::kInt64},
                                {"COST", rel::ValueType::kDouble}},
                               "ID"));
  TXREP_RETURN_IF_ERROR(db.CreateTable(std::move(schema)));
  TXREP_RETURN_IF_ERROR(db.CreateHashIndex("S", "COST"));
  TXREP_RETURN_IF_ERROR(db.CreateRangeIndex("S", "COST"));

  std::set<int64_t> live;
  int64_t next_id = 1;
  for (int i = 0; i < config.hot_rows; ++i) {
    const int64_t id = next_id++;
    TXREP_RETURN_IF_ERROR(
        db.ExecuteTransaction(
              {rel::InsertStatement{
                  "S",
                  {},
                  {Value::Int(id), Value::Int(0),
                   Value::Real(static_cast<double>(rng.Uniform(10)))}}})
            .status());
    live.insert(id);
  }

  auto random_live = [&]() -> int64_t {
    auto it = live.lower_bound(
        static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(next_id))));
    if (it == live.end()) it = live.begin();
    return *it;
  };

  for (int t = 0; t < txns; ++t) {
    std::vector<rel::Statement> statements;
    const int ops = 1 + static_cast<int>(rng.Uniform(3));
    for (int o = 0; o < ops; ++o) {
      const uint64_t pick = rng.Uniform(10);
      if (pick < 3 || live.empty()) {
        const int64_t id = next_id++;
        statements.push_back(rel::InsertStatement{
            "S",
            {},
            {Value::Int(id), Value::Int(static_cast<int64_t>(t)),
             Value::Real(static_cast<double>(rng.Uniform(10)))}});
        live.insert(id);
      } else if (pick < 8) {
        statements.push_back(rel::UpdateStatement{
            "S",
            {{"VAL", Value::Int(static_cast<int64_t>(rng.Uniform(1000)))},
             {"COST", Value::Real(static_cast<double>(rng.Uniform(10)))}},
            {rel::Predicate{"ID", rel::PredicateOp::kEq,
                            Value::Int(random_live()),
                            {}}}});
      } else {
        const int64_t id = random_live();
        statements.push_back(rel::DeleteStatement{
            "S",
            {rel::Predicate{"ID", rel::PredicateOp::kEq, Value::Int(id), {}}}});
        live.erase(id);
      }
    }
    TXREP_RETURN_IF_ERROR(db.ExecuteTransaction(statements).status());
  }
  return Status::OK();
}

/// Read-only transaction body: probes a row object through the buffered
/// view. NotFound is a legal answer (the row may not exist at this sequence
/// point); the probe exists to push read/write conflict edges into the
/// schedule, not to assert content.
core::Transaction::Body MakeReadOnlyProbe(std::string key) {
  return [key = std::move(key)](kv::KvStore* view) -> Status {
    Result<kv::Value> value = view->Get(key);
    if (!value.ok() && value.status().IsNotFound()) return Status::OK();
    return value.status();
  };
}

/// Read-only transaction body for blink_probes mode: builds an ephemeral
/// BlinkTree over the buffered view and runs a full range scan of the "S"
/// range index, so the lock-free read path faces the torn cross-key
/// snapshots a transaction buffer can serve. The scan must come back
/// strictly sorted (a duplicate means a split was double-emitted); Aborted
/// is legal — a wedged snapshot is exactly what the bounded retries are for,
/// and the TM's restart machinery re-executes against fresher state.
core::Transaction::Body MakeBlinkProbe(size_t max_node_keys,
                                       std::string table, std::string column) {
  return [max_node_keys, table = std::move(table),
          column = std::move(column)](kv::KvStore* view) -> Status {
    blink::BlinkTreeOptions tree_options;
    tree_options.max_node_keys = max_node_keys;
    // Keep the restart bound short: against a stale buffered snapshot the
    // restarts can never succeed, and the TM is waiting on this body.
    tree_options.max_read_restarts = 8;
    blink::BlinkTree tree(view, table, column, tree_options);
    TXREP_ASSIGN_OR_RETURN(std::vector<blink::EntryKey> entries,
                           tree.RangeScanBounds(std::nullopt, std::nullopt));
    for (size_t i = 0; i + 1 < entries.size(); ++i) {
      if (!(entries[i] < entries[i + 1])) {
        return Status::FailedPrecondition(
            "blink probe: unsorted or duplicated scan at index " +
            std::to_string(i));
      }
    }
    return Status::OK();
  };
}

std::string DiffDumps(const kv::StoreDump& serial,
                      const kv::StoreDump& concurrent) {
  if (serial.size() != concurrent.size()) {
    return "replica size diverged: serial=" + std::to_string(serial.size()) +
           " concurrent=" + std::to_string(concurrent.size());
  }
  for (size_t i = 0; i < serial.size(); ++i) {
    if (serial[i].first != concurrent[i].first) {
      return "key set diverged at index " + std::to_string(i) + ": serial \"" +
             serial[i].first + "\" vs concurrent \"" + concurrent[i].first +
             "\"";
    }
    if (serial[i].second != concurrent[i].second) {
      return "value diverged for key \"" + serial[i].first + "\"";
    }
  }
  return {};
}

}  // namespace

ScheduleExplorer::ScheduleExplorer(ScheduleExplorerOptions options)
    : options_(options) {}

Status ScheduleExplorer::RunOneInternal(uint64_t seed,
                                        ScheduleReport* report) {
  Random rng(seed);
  const ScheduleConfig config = DeriveConfig(rng);

  rel::Database db;
  std::optional<workload::TpccWorkload> tpcc;
  uint64_t population_lsn = 0;
  if (options_.tpcc) {
    // The seed's workload is a whole TPC-C-lite deployment: population plus
    // a NewOrder/Payment stream over seed-derived scale/skew/mix.
    tpcc.emplace(DeriveTpccOptions(seed));
    TXREP_RETURN_IF_ERROR(tpcc->CreateSchema(db));
    TXREP_RETURN_IF_ERROR(tpcc->Populate(db));
    population_lsn = db.log().LastLsn();
    TXREP_RETURN_IF_ERROR(tpcc->RunWrites(db, options_.txns_per_schedule));
  } else {
    TXREP_RETURN_IF_ERROR(
        GenerateWorkload(db, rng, config, options_.txns_per_schedule));
  }

  qt::QueryTranslator translator(
      &db.catalog(), {.max_node_keys = config.max_node_keys});

  // Reference: serial replay on a pristine, failure-free single node.
  kv::InMemoryKvNode serial_store;
  TXREP_RETURN_IF_ERROR(translator.InitializeIndexes(&serial_store));
  core::SerialApplier serial_applier(&serial_store, &translator);
  TXREP_RETURN_IF_ERROR(serial_applier.ApplyBatch(db.log().ReadSince(0)));

  // Candidate: concurrent replay with every knob drawn from the seed.
  kv::KvNodeOptions node_options;
  node_options.service_time_micros = config.service_micros;
  node_options.failure_seed = seed ^ 0x5bd1e995u;
  const BatchConfig batch_config = DeriveBatchConfig(seed);
  std::unique_ptr<kv::InMemoryKvNode> concurrent_node;
  std::unique_ptr<kv::KvCluster> concurrent_cluster;
  kv::KvStore* concurrent_store = nullptr;
  if (options_.batched_apply) {
    // Batched mode replays into a seed-derived cluster so the MultiWrite
    // routing + parallel fan-out path is part of the explored state space.
    kv::KvClusterOptions cluster_options;
    cluster_options.num_nodes = batch_config.num_nodes;
    cluster_options.node = node_options;
    cluster_options.dispatch_threads = batch_config.dispatch_threads;
    concurrent_cluster = std::make_unique<kv::KvCluster>(cluster_options);
    concurrent_store = concurrent_cluster.get();
  } else {
    concurrent_node = std::make_unique<kv::InMemoryKvNode>(node_options);
    concurrent_store = concurrent_node.get();
  }
  auto set_failure_rate = [&](double rate) {
    if (concurrent_cluster != nullptr) {
      concurrent_cluster->SetFailureRate(rate);
    } else {
      concurrent_node->set_failure_rate(rate);
    }
  };
  TXREP_RETURN_IF_ERROR(translator.InitializeIndexes(concurrent_store));
  // Inject transient failures only while the TM replays (the restart path
  // under test); index setup above and the audits below must stay clean.
  // The TPC-C bulk-population prefix must also replay clean: its 200-row
  // batches carry hundreds of KV ops per transaction, so any per-op failure
  // rate exhausts every retry budget. The failure window is armed in the
  // submission loop once the population prefix has applied.
  if (population_lsn == 0) set_failure_rate(config.failure_rate);

  core::TmOptions tm_options;
  tm_options.top_threads = config.threads;
  tm_options.bottom_threads = config.threads;
  tm_options.completed_gc_threshold = config.gc_threshold;
  if (options_.tpcc) {
    // TPC-C write sets span ~15+ keys across tables and nodes, so the same
    // 2% per-op injected failure rate needs far more retry budget than the
    // single-table workload before a transaction gives up for good.
    tm_options.max_apply_retries = 64;
    tm_options.max_execution_retries = 256;
  }
  // Traced mode: a live tracer with a seed-derived sampling period (private
  // stream, like the batch knobs) joins the replay. Contexts are minted per
  // LSN below, exactly as the log would have carried them.
  std::unique_ptr<trace::Tracer> tracer;
  if (options_.traced) {
    Random trace_rng(seed ^ 0x7ace5eedf117e000ULL);
    trace::TracerOptions trace_options;
    trace_options.sample_every = 1 + trace_rng.Uniform(4);
    tracer = std::make_unique<trace::Tracer>(trace_options);
  }

  // B-link probe stream (private, like the batch/trace knobs): which of the
  // interleaved read-only slots become index probes.
  Random probe_rng(seed ^ 0x0b71a7c4b5eed111ULL);
  std::vector<std::shared_ptr<core::Transaction>> blink_probes;

  core::TmStats stats;
  {
    core::TransactionManager tm(concurrent_store, &translator, tm_options,
                                /*metrics=*/nullptr, tracer.get());
    int64_t max_row_id = static_cast<int64_t>(config.hot_rows) +
                         options_.txns_per_schedule * 3 + 1;
    // Probe targets follow the workload: CUSTOMER rows (and the churning
    // STOCK.S_QUANTITY index) under TPC-C, the synthetic "S" table otherwise.
    auto probe_key = [&]() -> std::string {
      if (tpcc.has_value()) {
        const workload::TpccScale& scale = tpcc->scale();
        const int64_t w =
            1 + static_cast<int64_t>(
                    rng.Uniform(static_cast<uint64_t>(scale.warehouses)));
        const int64_t d = 1 + static_cast<int64_t>(rng.Uniform(
                                  static_cast<uint64_t>(
                                      scale.districts_per_warehouse)));
        const int64_t c =
            1 + static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(
                    scale.customers_per_district)));
        return codec::RowKey(
            "CUSTOMER",
            Value::Int(workload::TpccWorkload::CustomerKey(w, d, c)));
      }
      return codec::RowKey(
          "S", Value::Int(1 + static_cast<int64_t>(rng.Uniform(
                                  static_cast<uint64_t>(max_row_id)))));
    };
    const char* blink_table = tpcc.has_value() ? "STOCK" : "S";
    const char* blink_column = tpcc.has_value() ? "S_QUANTITY" : "COST";
    bool failures_armed = population_lsn == 0;
    for (rel::LogTransaction& txn : db.log().ReadSince(0)) {
      if (!failures_armed && txn.lsn > population_lsn) {
        TXREP_RETURN_IF_ERROR(tm.WaitIdle());
        set_failure_rate(config.failure_rate);
        failures_armed = true;
      }
      if (tracer != nullptr) txn.trace = tracer->Mint(txn.lsn);
      tm.SubmitUpdate(std::move(txn));
      if (config.read_only_rate > 0.0 &&
          rng.Bernoulli(config.read_only_rate)) {
        tm.SubmitReadOnly(MakeReadOnlyProbe(probe_key()));
      }
      if (options_.blink_probes && probe_rng.Bernoulli(0.25)) {
        blink_probes.push_back(tm.SubmitReadOnly(MakeBlinkProbe(
            config.max_node_keys, blink_table, blink_column)));
      }
    }
    TXREP_RETURN_IF_ERROR(tm.WaitIdle());
    TXREP_RETURN_IF_ERROR(tm.CheckInvariants());
    stats = tm.stats();
  }
  set_failure_rate(0.0);

  for (const std::shared_ptr<core::Transaction>& probe : blink_probes) {
    const Status probe_status = probe->Wait();
    // Unavailable (failure injection) and Aborted (wedged traversal on a
    // stale buffer) are expected terminal states; anything else means the
    // lock-free read path returned wrong data.
    if (!probe_status.ok() && !probe_status.IsUnavailable() &&
        !probe_status.IsAborted()) {
      return Status::FailedPrecondition("blink probe failed: " +
                                        probe_status.ToString());
    }
  }

  const std::string diff =
      DiffDumps(serial_store.Dump(), concurrent_store->Dump());
  if (!diff.empty()) {
    return Status::FailedPrecondition(
        "concurrent replay diverged from serial replay: " + diff);
  }

  if (tracer != nullptr) {
    // The workload commits LSNs 1..LastLsn densely, so the period guarantees
    // sampled transactions — an empty recorder means the tracing path was
    // silently bypassed, not that nothing qualified.
    const uint64_t last_lsn = db.log().LastLsn();
    if (last_lsn >= tracer->sample_every() && tracer->Dump().empty()) {
      return Status::Internal(
          "traced schedule recorded no spans (sample_every=" +
          std::to_string(tracer->sample_every()) + ", last_lsn=" +
          std::to_string(last_lsn) + ")");
    }
  }

  // Deep audit against the primary (structure + logical content, not just
  // bytes): sampled, except under TPC-C, where every replica is checked. The
  // serial reference replays through the same translator, so only this
  // check can catch a translator bug (say, a blind write that skipped an
  // index).
  const bool sampled_audit = report != nullptr && options_.audit_every > 0 &&
                             report->schedules_run % options_.audit_every == 0;
  if (options_.tpcc || sampled_audit) {
    TXREP_RETURN_IF_ERROR(
        CheckReplicaEquivalence(*concurrent_store, db, translator));
  }
  if (report != nullptr) {
    report->transactions_replayed += stats.completed;
    report->conflicts += stats.conflicts;
    report->restarts += stats.restarts;
  }

  if (options_.crash_restart) {
    TXREP_RETURN_IF_ERROR(
        RunCrashRestart(seed, db, translator, serial_store.Dump()));
  }
  if (options_.wire) {
    TXREP_RETURN_IF_ERROR(
        RunWire(seed, db, config.max_node_keys, serial_store.Dump()));
  }
  if (options_.blink_probes) {
    TXREP_RETURN_IF_ERROR(RunBlinkHammer(seed, config.max_node_keys, report));
  }
  return Status::OK();
}

Status ScheduleExplorer::RunBlinkHammer(uint64_t seed, size_t max_node_keys,
                                        ScheduleReport* report) {
  // A private random stream so the hammer's knobs never perturb the main
  // schedule derivation.
  Random rng(seed ^ 0x0b114ae4a71a7c8dULL);

  // Service-time jitter is what creates reader/writer overlap on small
  // machines: a GET that sleeps mid-traversal gives the writer time to split
  // the node the reader is about to visit.
  kv::KvNodeOptions node_options;
  node_options.service_time_micros = static_cast<int64_t>(rng.Uniform(16));
  kv::InMemoryKvNode store(node_options);

  blink::BlinkTreeOptions tree_options;
  tree_options.max_node_keys = max_node_keys;
  blink::BlinkTree tree(&store, "S", "COST", tree_options);
  TXREP_RETURN_IF_ERROR(tree.Init());

  // Seed population at even values; the writer inserts odd values between
  // them in a seed-derived order, splitting leaves all over the key range
  // (under the readers' point lookups too), and readers assert every seed
  // entry stays visible throughout.
  const int initial = 32 + static_cast<int>(rng.Uniform(33));
  for (int i = 0; i < initial; ++i) {
    TXREP_RETURN_IF_ERROR(
        tree.Insert(Value::Int(2 * i), "seed-" + std::to_string(i)));
  }
  std::vector<int64_t> gaps(initial);
  for (int i = 0; i < initial; ++i) gaps[i] = 2 * i + 1;
  rng.Shuffle(gaps);
  constexpr int kInserts = 24;  // <= the smallest seed population.

  const int readers = 2 + static_cast<int>(rng.Uniform(3));
  std::atomic<bool> writer_live{true};
  // Per-thread result slots: no shared mutable state between hammer threads
  // beyond the tree and the store themselves.
  Status writer_status;
  std::vector<Status> reader_status(readers);
  std::vector<std::thread> threads;
  threads.reserve(1 + readers);

  threads.emplace_back([&] {
    Status status;
    for (int k = 0; k < kInserts && status.ok(); ++k) {
      status = tree.Insert(Value::Int(gaps[k]), "w");
      if (status.ok() && k % 4 == 0) {
        // Row noise beside the tree: the batched apply path writing the
        // same store the readers traverse, like the TM's bottom pool would
        // during sustained apply.
        std::vector<kv::KvWrite> noise;
        for (int n = 0; n < 8; ++n) {
          noise.push_back(
              kv::KvWrite::Put("noise/" + std::to_string(k * 8 + n), "x"));
        }
        status = store.MultiWrite(noise);
      }
    }
    writer_status = status;
    writer_live.store(false, std::memory_order_release);
  });
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      Status status;  // First failure ends the loop.
      do {
        Result<std::vector<blink::EntryKey>> scan =
            tree.RangeScanBounds(std::nullopt, std::nullopt);
        if (!scan.ok()) {
          status = scan.status();
          break;
        }
        if (scan->size() < static_cast<size_t>(initial)) {
          status = Status::FailedPrecondition(
              "hammer scan lost seed entries: " +
              std::to_string(scan->size()) + " < " + std::to_string(initial));
          break;
        }
        for (size_t i = 0; i + 1 < scan->size() && status.ok(); ++i) {
          if (!((*scan)[i] < (*scan)[i + 1])) {
            status = Status::FailedPrecondition(
                "hammer scan unsorted or duplicated at index " +
                std::to_string(i));
          }
        }
        // Point lookups of every seed entry, each reader from its own
        // offset: the descents that race the writer's splits and must
        // repair them over right-links.
        for (int k = 0; k < initial && status.ok(); ++k) {
          const int i = (k + r * initial / readers) % initial;
          Result<bool> present =
              tree.Contains(Value::Int(2 * i), "seed-" + std::to_string(i));
          if (!present.ok()) {
            status = present.status();
          } else if (!*present) {
            status = Status::FailedPrecondition(
                "hammer lookup lost seed entry " + std::to_string(2 * i));
          }
        }
        if (!status.ok()) break;
        Result<size_t> count = tree.EntryCount();
        if (!count.ok()) {
          status = count.status();
          break;
        }
        if (*count < static_cast<size_t>(initial)) {
          status = Status::FailedPrecondition(
              "hammer count below seed population: " +
              std::to_string(*count) + " < " + std::to_string(initial));
          break;
        }
      } while (writer_live.load(std::memory_order_acquire));
      reader_status[r] = status;
    });
  }
  for (std::thread& t : threads) t.join();
  TXREP_RETURN_IF_ERROR(writer_status);
  for (const Status& status : reader_status) TXREP_RETURN_IF_ERROR(status);

  // Quiesced audits: structure and exact accounting (every insert landed
  // exactly once — the split-safe count must agree).
  TXREP_RETURN_IF_ERROR(tree.Validate());
  TXREP_ASSIGN_OR_RETURN(size_t count, tree.EntryCount());
  const size_t expected = static_cast<size_t>(initial + kInserts);
  if (count != expected) {
    return Status::FailedPrecondition(
        "hammer entry count " + std::to_string(count) + " != expected " +
        std::to_string(expected));
  }
  for (int i = 0; i < initial; ++i) {
    TXREP_ASSIGN_OR_RETURN(
        bool present,
        tree.Contains(Value::Int(2 * i), "seed-" + std::to_string(i)));
    if (!present) {
      return Status::FailedPrecondition("hammer lost seed entry " +
                                        std::to_string(2 * i));
    }
  }

  if (report != nullptr) {
    const blink::BlinkTreeStats tree_stats = tree.stats();
    report->blink_read_events +=
        tree_stats.move_rights + tree_stats.read_restarts;
  }
  return Status::OK();
}

Status ScheduleExplorer::RunWire(uint64_t seed, rel::Database& db,
                                 size_t max_node_keys,
                                 const kv::StoreDump& serial_dump) {
  const uint64_t last_lsn = db.log().LastLsn();
  if (last_lsn == 0) return Status::OK();
  // A private random stream so enabling wire exploration does not perturb
  // the main schedule derivation (seeds stay reproducible across modes).
  Random rng(seed ^ 0x3157a11c0ffee5ccULL);

  mw::Broker broker;
  net::EndpointOptions endpoint_options;
  // Retention must span the whole log: the remote replica bootstraps from
  // LSN 0 and the post-kill resume replays retained batches.
  endpoint_options.retention_capacity = 4096;
  // Small bounds so the credit/queue backpressure machinery actually
  // engages inside the schedule.
  endpoint_options.session_queue_capacity = 1 + rng.Uniform(8);
  endpoint_options.transport.send_queue_capacity = 1 + rng.Uniform(8);
  net::NetEndpoint endpoint(&broker, endpoint_options);
  endpoint.SetCatalog(codec::EncodeCatalog(db.catalog()));
  // Unwind order: the broker's delivery thread calls into the endpoint
  // (fanout) and can block on a session queue — end the sessions, then the
  // broker, before either object dies.
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
  replica_options.subscription.initial_credits = 1 + rng.Uniform(8);
  replica_options.subscription.queue_capacity = rng.Uniform(4);
  replica_options.subscription.reconnect_backoff_micros = 1000;
  replica_options.blink.max_node_keys = max_node_keys;
  replica_options.cluster.num_nodes =
      1 + static_cast<int>(rng.Uniform(4));
  RemoteReplica replica(std::move(replica_options));
  TXREP_RETURN_IF_ERROR(replica.Start());

  mw::PublisherOptions publisher_options;
  publisher_options.batch_size = 1 + rng.Uniform(8);
  mw::PublisherAgent publisher(&db.log(), &broker, publisher_options);

  // First act: ship until the seed's kill point crossed the wire and the
  // replica applied it, then hard-kill the connection — from whichever side
  // the seed picks.
  const uint64_t drop_lsn = 1 + rng.Uniform(last_lsn);
  const bool server_side_kill = rng.Bernoulli(0.5);
  while (publisher.shipped_lsn() < drop_lsn) {
    TXREP_RETURN_IF_ERROR(publisher.PumpOnce().status());
  }
  if (!replica.WaitForLsn(drop_lsn)) {
    return Status::Internal("wire replica stopped before the kill point: " +
                            replica.health().ToString());
  }
  if (server_side_kill) {
    endpoint.DropSessions();
  } else {
    replica.subscription()->InjectDisconnect();
  }

  // Second act: ship the rest; the subscriber must reconnect, resume from
  // its high-water LSN, dedup the replayed retention and catch up.
  TXREP_RETURN_IF_ERROR(publisher.PumpAll());
  if (!replica.WaitForLsn(last_lsn)) {
    return Status::Internal("wire replica stopped before catching up: " +
                            replica.health().ToString());
  }
  for (int i = 0; replica.subscription()->connects() < 2 && i < 5000; ++i) {
    SleepForMicros(1000);
  }
  if (replica.subscription()->connects() < 2) {
    return Status::Internal("subscriber never reconnected after the kill");
  }
  TXREP_RETURN_IF_ERROR(replica.health());

  const std::string diff = DiffDumps(serial_dump, replica.cluster().Dump());
  if (!diff.empty()) {
    return Status::FailedPrecondition(
        "wire replay diverged from serial replay: " + diff);
  }
  replica.Stop();
  return Status::OK();
}

Status ScheduleExplorer::RunCrashRestart(uint64_t seed, rel::Database& db,
                                         const qt::QueryTranslator& translator,
                                         const kv::StoreDump& serial_dump) {
  if (options_.scratch_dir.empty()) {
    return Status::InvalidArgument("crash_restart requires scratch_dir");
  }
  // A private random stream so adding crash exploration does not perturb
  // the main schedule derivation (seeds stay reproducible across modes).
  Random rng(seed ^ 0x9e3779b97f4a7c15ULL);

  const uint64_t last_lsn = db.log().LastLsn();
  if (last_lsn == 0) return Status::OK();
  const std::string dir =
      options_.scratch_dir + "/seed-" + std::to_string(seed);
  TXREP_RETURN_IF_ERROR(recov::RemoveDirRecursive(dir));
  TXREP_RETURN_IF_ERROR(recov::EnsureDir(dir));

  // Seed-derived crash point: the TM applies LSNs [1, crash_lsn], takes a
  // checkpoint, and then the whole replica vanishes.
  const uint64_t crash_lsn = 1 + rng.Uniform(last_lsn);

  {
    kv::InMemoryKvNode store;
    TXREP_RETURN_IF_ERROR(translator.InitializeIndexes(&store));
    core::TmOptions tm_options;
    tm_options.top_threads = 2;
    tm_options.bottom_threads = 2;
    core::TransactionManager tm(&store, &translator, tm_options);
    for (rel::LogTransaction& txn : db.log().ReadSince(0, crash_lsn)) {
      tm.SubmitUpdate(std::move(txn));
    }
    TXREP_RETURN_IF_ERROR(tm.WaitIdle());
    if (tm.last_applied_lsn() != crash_lsn) {
      return Status::Internal(
          "TM applied prefix ends at " +
          std::to_string(tm.last_applied_lsn()) + ", expected " +
          std::to_string(crash_lsn));
    }

    recov::CheckpointWriter writer(dir);
    // Seed-derived protocol fault: some schedules first suffer a checkpoint
    // attempt that dies mid-write (torn manifest, or a crash between
    // snapshot files). Recovery below must ignore its debris.
    const uint64_t fault_kind = rng.Uniform(3);
    if (fault_kind != 0 && crash_lsn > 1) {
      recov::CheckpointFaults faults;
      if (fault_kind == 1) {
        faults.tear_manifest = true;
      } else {
        faults.fail_after_files = 0;
      }
      writer.set_faults(faults);
      Result<recov::CheckpointStats> faulted =
          writer.Write(crash_lsn - 1, std::vector<kv::KvStore*>{&store});
      if (faulted.ok()) {
        return Status::Internal("injected checkpoint fault did not fail");
      }
      writer.set_faults(recov::CheckpointFaults{});
    }
    TXREP_RETURN_IF_ERROR(
        writer.Write(crash_lsn, std::vector<kv::KvStore*>{&store}).status());
  }  // <- crash: the live store and TM are gone; only `dir` survives.

  // Restart: a process-equivalent recovers from the newest usable
  // checkpoint and replays the log tail serially.
  TXREP_ASSIGN_OR_RETURN(recov::LoadedCheckpoint checkpoint,
                         recov::LoadLatestCheckpoint(dir, nullptr));
  if (checkpoint.manifest.snapshot_epoch != crash_lsn) {
    return Status::Internal(
        "recovery picked epoch " +
        std::to_string(checkpoint.manifest.snapshot_epoch) + ", expected " +
        std::to_string(crash_lsn));
  }
  kv::InMemoryKvNode recovered;
  TXREP_RETURN_IF_ERROR(recov::InstallCheckpoint(
      checkpoint, std::vector<kv::KvStore*>{&recovered}));
  std::vector<rel::LogTransaction> tail =
      db.log().ReadSince(checkpoint.manifest.snapshot_epoch);
  if (!tail.empty() &&
      tail.front().lsn != checkpoint.manifest.snapshot_epoch + 1) {
    return Status::Corruption(
        "log tail gap after epoch " +
        std::to_string(checkpoint.manifest.snapshot_epoch));
  }
  core::SerialApplier tail_applier(&recovered, &translator);
  TXREP_RETURN_IF_ERROR(tail_applier.ApplyBatch(tail));

  const std::string diff = DiffDumps(serial_dump, recovered.Dump());
  if (!diff.empty()) {
    return Status::FailedPrecondition(
        "crash-restart replica diverged from serial replay: " + diff);
  }
  if (options_.tpcc) {
    TXREP_RETURN_IF_ERROR(CheckReplicaEquivalence(recovered, db, translator));
  }
  return recov::RemoveDirRecursive(dir);
}

Status ScheduleExplorer::RunOne(uint64_t seed) {
  return RunOneInternal(seed, nullptr);
}

ScheduleReport ScheduleExplorer::Run() {
  ScheduleReport report;
  for (int i = 0; i < options_.schedules; ++i) {
    const uint64_t seed = options_.base_seed + static_cast<uint64_t>(i);
    Status status = RunOneInternal(seed, &report);
    ++report.schedules_run;
    if (!status.ok()) {
      report.failures.push_back(ScheduleFailure{seed, status.ToString()});
    }
  }
  return report;
}

std::string ScheduleReport::Summary() const {
  std::string summary = "schedules=" + std::to_string(schedules_run) +
                        " txns=" + std::to_string(transactions_replayed) +
                        " conflicts=" + std::to_string(conflicts) +
                        " restarts=" + std::to_string(restarts);
  if (blink_read_events > 0) {
    summary += " blink_reads=" + std::to_string(blink_read_events);
  }
  summary += " failures=" + std::to_string(failures.size());
  return summary;
}

}  // namespace txrep::check
