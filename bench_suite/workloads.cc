// The benchmark workloads and why each exists. Both run on the paper's
// substrate (5 nodes x 4 slots x 40 us) with 20+20 TM threads.
//
//  tpcc_catchup  A fresh 2000-txn TPC-C-lite NewOrder/Payment backlog
//                replayed into a replica just loaded from the snapshot.
//                About 20 KV writes per transaction and a contended
//                district/warehouse counter in nearly every one, but only a
//                few pairwise conflict checks, none of which the class filter
//                can skip: bound by KV service, BatchDispatcher and the
//                park/restart path.
//  tpcw_live     Open-loop TPC-W shopping mix at a fixed 400 interactions/s
//                (Poisson): writes commit on the primary, reads run on the
//                replica beside them. The only workload whose timed path
//                crosses rel, mw, net and codec while reads and writes share
//                the TM. The rate leaves headroom so that a contended host
//                slows it without tipping it into overload.
//
// No gated workload is bound by our own CPU work, such as a TPC-W backlog
// whose commit decisions queue behind Algorithm 1's conflict scan: on a
// shared host such a workload follows the host's speed, which drifts by
// 15-25% over minutes (bench_suite/README.md has the measurements).
//
// The catch-up also probes the caught-up replica with reads of its own
// workload, so every workload reports read latency; each probe's rows are
// checked against the primary.

#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "bench_util.h"
#include "codec/row_codec.h"
#include "common/blocking_queue.h"
#include "core/serial_applier.h"
#include "kv/inmemory_node.h"
#include "pipeline.h"
#include "qt/consistency_checker.h"
#include "spans.h"
#include "workload/loadgen.h"
#include "workload/tpcc.h"
#include "workload/tpcw.h"

namespace txrep::benchsuite {
namespace {

constexpr int kMinEpisodes = 3;
constexpr int kMaxEpisodes = 1000;
constexpr int64_t kEpisodeDeadlineNs = 60'000'000'000;
constexpr int64_t kDrainTimeoutNs = 5'000'000'000;
constexpr int kLiveSetups = 3;
constexpr double kLiveRatePerSec = 400;
// The live run's lag percentiles are taken per third of the window (each
// still holds over 1000 updates at 40 s) and their median reported, so one
// burst of slow updates moves one window's p99 instead of the run's.
constexpr int kLiveLagWindows = 3;
constexpr double kMaxSlipUs = 1000;

int64_t CpuNanos() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto nanos = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return nanos(usage.ru_utime) + nanos(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Hands the heap freed by an earlier episode back to the OS, so that peak
/// RSS measures one episode's footprint instead of how fragmented the
/// allocator's per-thread arenas were left by the episodes before it.
void ReleaseFreedHeap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

std::chrono::steady_clock::time_point SteadyAt(int64_t nanos) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(nanos));
}

int Scaled(int n, double scale) {
  return std::max(1, static_cast<int>(std::lround(n * scale)));
}

/// The paper's substrate (shared with the Google Benchmark programs) and
/// 20+20 TM threads.
Pipeline::Options PaperDeployment() { return {bench::DefaultCluster(), 20}; }

/// Seed of the TPC-W population. The population is the same in every run;
/// --seed varies the transaction stream. A population drawn per seed moves
/// read cost by up to 25% between seeds (range-scan sizes depend on it),
/// which would drown the run-to-run signal.
constexpr uint64_t kTpcwPopulationSeed = 7;

/// The TPC-W scale of bench_util's BuildTpcwLog, which keeps it inline.
workload::TpcwScale TpcwBenchScale() {
  workload::TpcwScale scale;
  scale.items = 500;
  scale.customers = 300;
  scale.addresses = 600;
  scale.initial_orders = 100;
  return scale;
}

/// Span id of a transaction: runs hold several episodes, each with its own
/// database, so the episode number keeps LSNs and read numbers apart.
uint64_t WriteId(int episode, uint64_t lsn) {
  return (static_cast<uint64_t>(episode) << 40) | lsn;
}
uint64_t ReadId(int episode, uint64_t read_no) {
  return kReadIdBit | (static_cast<uint64_t>(episode) << 40) | read_no;
}

/// A primary commit: when it was due and when ExecuteTransaction started.
struct Exec {
  int64_t due_ns = 0;
  int64_t start_ns = 0;
};
using ExecByLsn = std::unordered_map<uint64_t, Exec>;

Status Commit(rel::Database& db, const std::vector<rel::Statement>& statements,
              int64_t due_ns, ExecByLsn* execs, uint64_t* lsn) {
  const int64_t start = NowNanos();
  TXREP_ASSIGN_OR_RETURN(rel::CommitInfo info,
                         db.ExecuteTransaction(statements));
  if (info.lsn != 0) (*execs)[info.lsn] = Exec{due_ns, start};
  *lsn = info.lsn;
  return Status::OK();
}

/// A read-only transaction on the replica once its handle completed.
struct ReadRecord {
  int64_t due_ns = 0;
  int64_t submit_call_ns = 0;
  int64_t done_ns = 0;
  int64_t submit_us = 0;
  int64_t commit_wall_us = 0;
  int restarts = 0;
  bool ok = false;
};

void FinishRead(core::Transaction& txn, ReadRecord* record) {
  record->ok = txn.Wait().ok();
  record->done_ns = NowNanos();
  record->submit_us = txn.submit_micros;
  record->commit_wall_us = txn.commit_wall_micros;
  record->restarts = txn.restarts();
}

/// Everything a run accumulates across its episodes.
struct Totals {
  Samples replay_tx_per_s;
  // Per episode (the live run is one episode): a single slow episode moves
  // only its own entry, not a pooled tail.
  Samples lag_p50_us;
  Samples lag_p99_us;
  int64_t lag_samples = 0;
  Samples read_us;
  Samples setup_s;
  Samples replica_ratio;
  Samples slip_us;
  int64_t cpu_ns = 0;
  int64_t replica_txns = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Gate> gates;

  // Traced runs only.
  SpanLog spans;
  core::TmStats tm;
  KvCounts kv;
  ReadCounts reads;
  int64_t read_restarts = 0;
  int64_t reads_done = 0;
  int64_t messages = 0;
  int64_t payload_bytes = 0;
  int64_t shipped = 0;
  double user_bytes = 0;
  double hop_sum_us = 0;
  double lag_sum_us = 0;

  void AddEpisodeLags(const Samples& lags) {
    lag_p50_us.Add(lags.Quantile(0.5));
    lag_p99_us.Add(lags.Quantile(0.99));
    lag_samples += static_cast<int64_t>(lags.size());
  }

  /// A gate fails if any episode fails it; the first failure is kept.
  void Check(const std::string& name, bool ok, const std::string& detail,
             bool output) {
    auto [it, inserted] =
        gates.try_emplace(name, Gate{name, true, "", output});
    if (!ok && it->second.ok) it->second = Gate{name, false, detail, output};
  }

  void AddPipeline(const Pipeline& p) {
    const core::TmStats s = p.tm_stats();
    tm.submitted += s.submitted;
    tm.conflicts += s.conflicts;
    tm.restarts += s.restarts;
    tm.conflict_checks += s.conflict_checks;
    tm.class_filter_skips += s.class_filter_skips;
    const KvCounts k = p.kv_counts();
    kv.get_calls += k.get_calls;
    kv.get_keys += k.get_keys;
    kv.get_misses += k.get_misses;
    kv.write_calls += k.write_calls;
    kv.write_entries += k.write_entries;
    kv.bytes_written += k.bytes_written;
    kv.blink_node_reads += k.blink_node_reads;
    kv.blink_node_writes += k.blink_node_writes;
    kv.busy_nanos += k.busy_nanos;
    const ReadCounts r = p.read_counts();
    reads.selects += r.selects;
    reads.rows += r.rows;
    reads.keys += r.keys;
    reads.blink_node_reads += r.blink_node_reads;
    messages += p.messages();
    payload_bytes += p.payload_bytes();
    shipped += static_cast<int64_t>(p.writes().size());
  }

  /// Spans of one update transaction. Its hops tile the root span "lag",
  /// [root_us, applied]: generator slip and rel.commit (live only; a
  /// catch-up backlog was committed before the episode started), then
  /// mw.publish, net.transit, mw.recv, core.to_commit and core.apply.
  void AddWriteSpans(uint64_t id, const WriteRecord& w, double root_us,
                     const Exec* exec, bool live) {
    const double done_us = NanosToMicros(w.done_ns);
    auto hop = [&](const char* name, double start, double end) {
      spans.Add({name, id, start, end, "lag"});
      hop_sum_us += end - start;
    };
    spans.Add({"lag", id, root_us, done_us, ""});
    lag_sum_us += done_us - root_us;
    const double commit_us = static_cast<double>(w.commit_us);
    if (exec != nullptr) {
      const double exec_us = NanosToMicros(exec->start_ns);
      if (live) {
        hop("gen.slip", root_us, exec_us);
        hop("rel.commit", exec_us, commit_us);
      } else {
        spans.Add({"rel.commit", id, exec_us, commit_us, ""});
      }
    }
    const double publish_us = static_cast<double>(w.publish_us);
    const double pop_us = NanosToMicros(w.pop_ns);
    const double sink_us = NanosToMicros(w.sink_ns);
    const double commit_wall_us = static_cast<double>(w.commit_wall_us);
    hop("mw.publish", std::max(commit_us, root_us), publish_us);
    hop("net.transit", publish_us, pop_us);
    hop("mw.recv", pop_us, sink_us);
    hop("core.to_commit", static_cast<double>(w.submit_us), commit_wall_us);
    hop("core.apply", commit_wall_us, done_us);
    spans.Add({"core.eval_wait", id, static_cast<double>(w.enqueue_us),
               commit_wall_us, "core.to_commit"});
    spans.Add({"core.submit", id, sink_us, NanosToMicros(w.submitted_ns), ""});
  }

  /// Spans of one read-only transaction: root "read" [due, completed] tiled
  /// by read.slip, read.to_commit and read.apply; the reader's qt.select
  /// spans (recorded by the pipeline) sit inside read.to_commit.
  void AddReadSpans(uint64_t id, const ReadRecord& r) {
    const double due_us = NanosToMicros(r.due_ns);
    const double call_us = NanosToMicros(r.submit_call_ns);
    const double commit_wall_us = static_cast<double>(r.commit_wall_us);
    const double done_us = NanosToMicros(r.done_ns);
    spans.Add({"read", id, due_us, done_us, ""});
    if (call_us > due_us) spans.Add({"read.slip", id, due_us, call_us, "read"});
    spans.Add({"read.to_commit", id, static_cast<double>(r.submit_us),
               commit_wall_us, "read"});
    spans.Add({"read.apply", id, commit_wall_us, done_us, "read"});
  }

  void AddRead(const ReadRecord& r, uint64_t span_id, bool traced) {
    ++replica_txns;
    ++attempted;
    if (!r.ok) {
      ++failed;
      return;
    }
    read_us.Add(NanosToMicros(r.done_ns - r.due_ns));
    read_restarts += r.restarts;
    ++reads_done;
    if (traced) AddReadSpans(span_id, r);
  }
};

/// Serially replays what the pipeline shipped into `reference` (loaded with
/// the same snapshot) and compares the two replicas byte for byte. Adds the
/// shipped after-image bytes to `*user_bytes`.
Status CheckAgainstSerial(Pipeline& pipeline, rel::Database& db,
                          kv::InMemoryKvNode& reference, double* user_bytes) {
  const std::vector<rel::LogTransaction> log =
      db.log().ReadSince(pipeline.snapshot_lsn());
  core::SerialApplier serial(&reference, &pipeline.translator());
  TXREP_RETURN_IF_ERROR(serial.ApplyBatch(log));
  for (const rel::LogTransaction& txn : log) {
    for (const rel::LogOp& op : txn.ops) {
      *user_bytes += static_cast<double>(codec::EncodeRow(op.after).size());
    }
  }
  if (pipeline.cluster().Dump() != reference.Dump()) {
    return Status::Corruption("replica differs from serial replay of " +
                              std::to_string(log.size()) + " transactions");
  }
  return Status::OK();
}

/// Replica key+value bytes per encoded primary row byte.
double ReplicaBytesPerUserByte(kv::KvCluster& cluster, rel::Database& db) {
  double replica = 0;
  for (const auto& [key, value] : cluster.Dump()) {
    replica += static_cast<double>(key.size() + value.size());
  }
  double user = 0;
  for (const auto& [table, rows] : db.DumpAll()) {
    for (const rel::Row& row : rows) {
      user += static_cast<double>(codec::EncodeRow(row).size());
    }
  }
  return user > 0 ? replica / user : 0;
}

bool SameRows(std::vector<rel::Row> a, std::vector<rel::Row> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void AddEndToEnd(const Totals& t, RunReport* report) {
  auto add = [&](const char* name, double value, const char* unit,
                 size_t samples) {
    report->end_to_end.push_back(
        {name, value, unit, static_cast<int64_t>(samples)});
  };
  add("replay_tx_per_s", t.replay_tx_per_s.Quantile(0.5), "tx/s",
      t.replay_tx_per_s.size());
  const auto lag_samples = static_cast<size_t>(t.lag_samples);
  add("lag_p50_ms", t.lag_p50_us.Quantile(0.5) / 1e3, "ms", lag_samples);
  add("lag_p99_ms", t.lag_p99_us.Quantile(0.5) / 1e3, "ms", lag_samples);
  add("read_p50_ms", t.read_us.Quantile(0.5) / 1e3, "ms", t.read_us.size());
  add("read_p99_ms", t.read_us.Quantile(0.99) / 1e3, "ms", t.read_us.size());
  add("setup_s", t.setup_s.Quantile(0.5), "s", t.setup_s.size());
  add("peak_rss_mb", PeakRssMb(), "MB", 1);
  add("replica_bytes_per_user_byte", t.replica_ratio.Quantile(0.5), "ratio",
      t.replica_ratio.size());
  // Succeeded over attempted: 1 in a healthy run, and any failure shows as a
  // drop. A failure share would read 0 there, leaving no median to compare
  // a change against.
  add("success_frac",
      Ratio(static_cast<double>(t.attempted - t.failed),
            static_cast<double>(t.attempted)),
      "ratio", static_cast<size_t>(t.attempted));
}

void AddPerLayer(const Totals& t, RunReport* report) {
  const std::map<std::string, Samples> hops = DurationsByHop(t.spans.spans());
  auto add = [&](const std::string& name, double value, const char* unit,
                 int64_t samples) {
    report->per_layer.push_back({name, value, unit, samples});
  };
  // Adds name.p50 and/or name.p99 of the durations of `hop` spans.
  auto quantiles = [&](const std::string& name, const char* hop,
                       std::initializer_list<double> qs) {
    const auto it = hops.find(hop);
    const Samples empty;
    const Samples& s = it != hops.end() ? it->second : empty;
    for (double q : qs) {
      add(name + (q == 0.5 ? ".p50" : ".p99"), s.Quantile(q), "us",
          static_cast<int64_t>(s.size()));
    }
  };
  const std::initializer_list<double> both = {0.5, 0.99};
  const double tx = static_cast<double>(t.replica_txns);
  const auto txns = t.replica_txns;
  const double checks = static_cast<double>(t.tm.conflict_checks);
  const double skips = static_cast<double>(t.tm.class_filter_skips);

  add("core.pair_checks_per_tx", Ratio(checks, tx), "count", txns);
  // The share of transaction pairs the class filter could not rule out; 1
  // where every pair shares a table (tpcc_catchup).
  add("core.filter_pass_ratio", Ratio(checks, skips + checks), "ratio",
      static_cast<int64_t>(skips + checks));
  quantiles("core.eval_wait_us", "core.eval_wait", both);
  add("core.executions_per_tx",
      Ratio(static_cast<double>(t.tm.submitted + t.tm.restarts), tx), "count",
      txns);
  add("core.conflicts_per_tx", Ratio(static_cast<double>(t.tm.conflicts), tx),
      "count", txns);
  quantiles("core.to_commit_us", "core.to_commit", both);
  quantiles("core.apply_us", "core.apply", both);
  quantiles("core.submit_us", "core.submit", {0.99});
  // 1 where reads never restart (the catch-up probes an idle replica).
  add("core.executions_per_read",
      Ratio(static_cast<double>(t.reads_done + t.read_restarts),
            static_cast<double>(t.reads_done)),
      "count", t.reads_done);

  const KvCounts& kv = t.kv;
  add("kv.get_calls_per_tx", Ratio(static_cast<double>(kv.get_calls), tx),
      "count", txns);
  add("kv.multiwrite_calls_per_tx",
      Ratio(static_cast<double>(kv.write_calls), tx), "count", txns);
  add("kv.entries_per_multiwrite",
      Ratio(static_cast<double>(kv.write_entries),
            static_cast<double>(kv.write_calls)),
      "count", kv.write_calls);
  quantiles("kv.get_us", "kv.get", both);
  quantiles("kv.multiwrite_us", "kv.multiwrite", both);
  add("kv.busy_us_per_tx", Ratio(static_cast<double>(kv.busy_nanos) / 1e3, tx),
      "us", txns);
  add("kv.get_miss_frac",
      Ratio(static_cast<double>(kv.get_misses),
            static_cast<double>(kv.get_keys)),
      "ratio", kv.get_keys);
  add("kv.bytes_written_per_user_byte",
      Ratio(static_cast<double>(kv.bytes_written), t.user_bytes), "ratio",
      kv.write_entries);
  add("blink.node_reads_per_tx",
      Ratio(static_cast<double>(kv.blink_node_reads), tx), "count", txns);
  add("blink.node_writes_per_tx",
      Ratio(static_cast<double>(kv.blink_node_writes), tx), "count", txns);

  const ReadCounts& r = t.reads;
  const double selects = static_cast<double>(r.selects);
  quantiles("qt.select_us", "qt.select", both);
  add("qt.keys_per_row",
      Ratio(static_cast<double>(r.keys), static_cast<double>(r.rows)), "count",
      r.rows);
  add("blink.node_reads_per_select",
      Ratio(static_cast<double>(r.blink_node_reads), selects), "count",
      r.selects);

  quantiles("rel.commit_us", "rel.commit", both);
  quantiles("mw.publish_us", "mw.publish", both);
  quantiles("mw.recv_us", "mw.recv", {0.5});
  add("mw.txns_per_message",
      Ratio(static_cast<double>(t.shipped), static_cast<double>(t.messages)),
      "count", t.messages);
  quantiles("net.transit_us", "net.transit", both);
  add("net.bytes_per_tx",
      Ratio(static_cast<double>(t.payload_bytes),
            static_cast<double>(t.shipped)),
      "bytes", t.shipped);
}

Status Finish(const RunArgs& args, const Totals& t, RunReport* report) {
  report->attempted = t.attempted;
  report->failed = t.failed;
  for (const auto& [name, gate] : t.gates) report->gates.push_back(gate);
  report->gates.push_back(
      {"no_failed_operations", t.failed == 0,
       std::to_string(t.failed) + " of " + std::to_string(t.attempted),
       /*output=*/false});
  AddEndToEnd(t, report);
  // CPU per transaction follows the host's speed, which drifts by 15-20%
  // over minutes on a shared machine: reported, but not a gated metric.
  report->validity.push_back(
      {"cpu_us_per_tx",
       Ratio(static_cast<double>(t.cpu_ns) / 1e3,
             static_cast<double>(t.replica_txns)),
       "us", t.replica_txns});
  if (args.trace) {
    AddPerLayer(t, report);
    // The hop spans of each update must tile its lag span; a sum off by
    // more than 10% means a hop is missing or double counted.
    const double sum_over_lag = Ratio(t.hop_sum_us, t.lag_sum_us);
    report->gates.push_back({"hops_sum_over_lag_within_10pct",
                             std::abs(sum_over_lag - 1) <= 0.10,
                             std::to_string(sum_over_lag),
                             /*output=*/false});
    report->validity.push_back(
        {"hops.sum_over_lag", sum_over_lag, "ratio", t.shipped});
    report->validity.push_back(
        {"qt.rows_per_select",
         Ratio(static_cast<double>(t.reads.rows),
               static_cast<double>(t.reads.selects)),
         "count", t.reads.selects});
    if (!args.spans_path.empty() &&
        !WriteSpansJson(args.spans_path, t.spans.spans())) {
      return Status::Internal("cannot write spans to " + args.spans_path);
    }
  }
  return Status::OK();
}

// --- catch-up workload -------------------------------------------------------

/// One TPC-C-lite catch-up episode: a fresh NewOrder/Payment backlog per
/// seed, and OrderStatus/StockLevel read probes from a separate generator.
class TpccEpisode {
 public:
  TpccEpisode(uint64_t seed, double scale)
      : tpcc_(Options(seed)),
        seed_(seed),
        txns_(Scaled(2000, scale)),
        probes_(Scaled(400, scale)) {}

  Status Populate(rel::Database& db) {
    TXREP_RETURN_IF_ERROR(tpcc_.CreateSchema(db));
    return tpcc_.Populate(db);
  }

  Status CommitBacklog(rel::Database& db, ExecByLsn* execs) {
    for (int i = 0; i < txns_; ++i) {
      uint64_t lsn = 0;
      TXREP_RETURN_IF_ERROR(
          Commit(db, tpcc_.NextWriteTransaction().statements, 0, execs, &lsn));
    }
    return Status::OK();
  }

  std::vector<rel::SelectStatement> ReadProbes() const {
    workload::TpccOptions options = Options(seed_ ^ 0x9e3779b97f4a7c15ULL);
    options.mix = {.new_order = 0, .payment = 0};
    workload::TpccWorkload reads(options);
    std::vector<rel::SelectStatement> probes;
    for (int i = 0; i < probes_; ++i) {
      probes.push_back(reads.NextTransaction().read_query);
    }
    return probes;
  }

 private:
  static workload::TpccOptions Options(uint64_t seed) {
    workload::TpccOptions options;
    options.seed = seed;
    return options;
  }

  workload::TpccWorkload tpcc_;
  uint64_t seed_;
  int txns_;
  int probes_;
};

/// TPC-C catch-up episodes until their timed windows fill `args.seconds`.
/// Each episode sets up from nothing (population, snapshot load into a fresh
/// replica, wire handshake, backlog commit on the primary), then times
/// shipping + applying the backlog, then the read probes.
Result<RunReport> RunCatchup(const RunArgs& args) {
  const Pipeline::Options options = PaperDeployment();
  Totals t;
  SpanLog* spans = args.trace ? &t.spans : nullptr;
  int64_t measured_ns = 0;
  for (int episode = 0;
       episode < kMaxEpisodes &&
       (episode < kMinEpisodes ||
        static_cast<double>(measured_ns) < args.seconds * 1e9);
       ++episode) {
    const uint64_t seed = args.seed * 1000 + static_cast<uint64_t>(episode);
    ReleaseFreedHeap();

    // Set-up. The serial reference copy of the snapshot is verification,
    // so its load is not set-up time.
    const int64_t setup_start = NowNanos();
    auto db = std::make_unique<rel::Database>();
    TpccEpisode source(seed, args.scale);
    TXREP_RETURN_IF_ERROR(source.Populate(*db));
    TXREP_ASSIGN_OR_RETURN(std::unique_ptr<Pipeline> pipeline,
                           Pipeline::Create(db.get(), options, spans));
    const int64_t reference_start = NowNanos();
    kv::InMemoryKvNode reference;
    TXREP_RETURN_IF_ERROR(
        pipeline->translator().LoadSnapshot(&reference, *db));
    const int64_t reference_ns = NowNanos() - reference_start;
    ExecByLsn execs;
    TXREP_RETURN_IF_ERROR(source.CommitBacklog(*db, &execs));
    const std::vector<rel::SelectStatement> probes = source.ReadProbes();
    t.setup_s.Add(
        static_cast<double>(NowNanos() - setup_start - reference_ns) / 1e9);

    // Timed: ship and apply the backlog, then probe the caught-up replica.
    const auto backlog =
        static_cast<int64_t>(db->log().LastLsn() - pipeline->snapshot_lsn());
    const int64_t cpu_start = CpuNanos();
    const int64_t t0 = pipeline->StartShipping();
    const bool drained =
        pipeline->WaitWritesObserved(backlog, t0 + kEpisodeDeadlineNs);
    const int64_t t1 = NowNanos();
    std::vector<std::vector<rel::Row>> rows(probes.size());
    std::vector<ReadRecord> reads(probes.size());
    for (size_t i = 0; i < probes.size(); ++i) {
      reads[i].due_ns = reads[i].submit_call_ns = NowNanos();
      FinishRead(*pipeline->SubmitRead(&probes[i], ReadId(episode, i), &rows[i]),
                 &reads[i]);
    }
    measured_ns += NowNanos() - t0;
    t.cpu_ns += CpuNanos() - cpu_start;
    pipeline->Stop();

    t.replay_tx_per_s.Add(static_cast<double>(backlog) * 1e9 /
                          static_cast<double>(t1 - t0));
    t.Check("backlog_drained", drained,
            "episode " + std::to_string(episode) + " applied " +
                std::to_string(pipeline->writes().size()) + " of " +
                std::to_string(backlog),
            /*output=*/false);
    t.replica_txns += backlog;
    t.attempted += backlog;
    t.failed += backlog - static_cast<int64_t>(pipeline->writes().size());
    Samples lags;
    for (const WriteRecord& w : pipeline->writes()) {
      if (!w.ok) ++t.failed;
      lags.Add(NanosToMicros(w.done_ns - t0));
      if (args.trace) {
        const auto exec = execs.find(w.lsn);
        t.AddWriteSpans(WriteId(episode, w.lsn), w, NanosToMicros(t0),
                        exec != execs.end() ? &exec->second : nullptr,
                        /*live=*/false);
      }
    }
    t.AddEpisodeLags(lags);
    bool reads_match = true;
    for (size_t i = 0; i < probes.size(); ++i) {
      t.AddRead(reads[i], ReadId(episode, i), args.trace);
      Result<std::vector<rel::Row>> expected = db->Query(probes[i]);
      if (reads[i].ok && (!expected.ok() || !SameRows(*expected, rows[i]))) {
        reads_match = false;
      }
    }
    t.Check("reads_match_primary", reads_match,
            "episode " + std::to_string(episode), /*output=*/true);
    if (args.trace) t.AddPipeline(*pipeline);

    const Status serial =
        CheckAgainstSerial(*pipeline, *db, reference, &t.user_bytes);
    t.Check("replica_equals_serial_replay", serial.ok(),
            "episode " + std::to_string(episode) + ": " + serial.ToString(),
            /*output=*/true);
    t.replica_ratio.Add(ReplicaBytesPerUserByte(pipeline->cluster(), *db));
  }
  RunReport report;
  TXREP_RETURN_IF_ERROR(Finish(args, t, &report));
  return report;
}

// --- live workload -----------------------------------------------------------

/// Creates the TPC-W schema and the fixed population on `db`.
Status PopulateTpcw(rel::Database& db) {
  workload::TpcwWorkload population(TpcwBenchScale(), kTpcwPopulationSeed);
  TXREP_RETURN_IF_ERROR(population.CreateSchema(db));
  return population.Populate(db);
}

/// Open-loop TPC-W shopping traffic for `args.seconds`, then a drain of at
/// most 5 s. One generator thread commits writes on the primary and submits
/// reads to the replica asynchronously; one waiter thread observes read
/// completions (the pipeline's own waiter observes writes).
Result<RunReport> RunLive(const RunArgs& args) {
  Totals t;
  SpanLog* spans = args.trace ? &t.spans : nullptr;
  const Pipeline::Options options = PaperDeployment();
  workload::LoadGenOptions load;
  load.base_rate_per_sec = kLiveRatePerSec;
  load.duration_micros = static_cast<int64_t>(args.seconds * 1e6);
  load.seed = args.seed;

  // Set-up, repeated so setup_s is a median: population, pre-generation of
  // every arrival's transaction, snapshot load, wire handshake.
  std::unique_ptr<Pipeline> pipeline;
  std::unique_ptr<rel::Database> db;
  std::vector<int64_t> offsets;
  std::vector<workload::TpcwWorkload::TxnSpec> specs;
  for (int i = 0; i < kLiveSetups; ++i) {
    pipeline.reset();
    db.reset();
    specs.clear();
    const int64_t setup_start = NowNanos();
    db = std::make_unique<rel::Database>();
    TXREP_RETURN_IF_ERROR(PopulateTpcw(*db));
    offsets = workload::ArrivalSchedule(load).offsets();
    workload::TpcwWorkload stream(TpcwBenchScale(), args.seed);
    specs.reserve(offsets.size());
    for (size_t k = 0; k < offsets.size(); ++k) {
      specs.push_back(stream.NextTransaction(workload::TpcwMix::kShopping));
    }
    TXREP_ASSIGN_OR_RETURN(pipeline,
                           Pipeline::Create(db.get(), options, spans));
    t.setup_s.Add(static_cast<double>(NowNanos() - setup_start) / 1e9);
  }
  kv::InMemoryKvNode reference;
  TXREP_RETURN_IF_ERROR(pipeline->translator().LoadSnapshot(&reference, *db));

  struct PendingRead {
    size_t index;
    std::shared_ptr<core::Transaction> handle;
  };
  BlockingQueue<PendingRead> read_queue;
  std::vector<ReadRecord> reads(specs.size());
  std::vector<std::vector<rel::Row>> rows(specs.size());
  std::mutex read_mu;
  std::condition_variable read_cv;
  int64_t reads_done = 0;
  std::thread read_waiter([&] {
    while (std::optional<PendingRead> pending = read_queue.Pop()) {
      FinishRead(*pending->handle, &reads[pending->index]);
      std::lock_guard<std::mutex> lock(read_mu);
      ++reads_done;
      read_cv.notify_all();
    }
  });

  ExecByLsn execs;
  int64_t writes = 0;
  int64_t reads_submitted = 0;
  const int64_t cpu_start = CpuNanos();
  const int64_t start = pipeline->StartShipping();
  for (size_t i = 0; i < specs.size(); ++i) {
    const int64_t due = start + offsets[i] * 1000;
    std::this_thread::sleep_until(SteadyAt(due));
    if (specs[i].is_write) {
      uint64_t lsn = 0;
      const Status status = Commit(*db, specs[i].statements, due, &execs, &lsn);
      ++t.attempted;
      if (!status.ok()) {
        ++t.failed;
      } else if (lsn != 0) {
        ++writes;
        t.slip_us.Add(NanosToMicros(execs[lsn].start_ns - due));
      }
      continue;
    }
    reads[i].due_ns = due;
    reads[i].submit_call_ns = NowNanos();
    t.slip_us.Add(NanosToMicros(reads[i].submit_call_ns - due));
    read_queue.Push(
        {i, pipeline->SubmitRead(&specs[i].read_query, ReadId(0, i), &rows[i])});
    ++reads_submitted;
  }
  const int64_t deadline =
      start + (offsets.empty() ? 0 : offsets.back() * 1000) + kDrainTimeoutNs;
  bool drained = pipeline->WaitWritesObserved(writes, deadline);
  {
    std::unique_lock<std::mutex> lock(read_mu);
    drained &= read_cv.wait_until(lock, SteadyAt(deadline), [&] {
      return reads_done >= reads_submitted;
    });
  }
  t.cpu_ns += CpuNanos() - cpu_start;
  read_queue.Close();
  read_waiter.join();
  pipeline->Stop();

  const auto observed = static_cast<int64_t>(pipeline->writes().size());
  t.Check("drained_within_5s", drained,
          std::to_string(writes - observed) + " writes, " +
              std::to_string(reads_submitted - reads_done) +
              " reads outstanding",
          /*output=*/false);
  t.failed += writes - observed;
  t.replica_txns += writes;
  int64_t last_done = start;
  std::vector<Samples> lags(kLiveLagWindows);
  for (const WriteRecord& w : pipeline->writes()) {
    if (!w.ok) ++t.failed;
    last_done = std::max(last_done, w.done_ns);
    const auto exec = execs.find(w.lsn);
    if (exec == execs.end()) {
      t.Check("writes_match_commits", false,
              "lsn " + std::to_string(w.lsn) + " was never committed",
              /*output=*/true);
      continue;
    }
    const int64_t due = exec->second.due_ns;
    const auto window = std::min<int64_t>(
        kLiveLagWindows - 1,
        (due - start) * kLiveLagWindows / (load.duration_micros * 1000));
    lags[window].Add(NanosToMicros(w.done_ns - due));
    if (args.trace) {
      t.AddWriteSpans(WriteId(0, w.lsn), w,
                      NanosToMicros(exec->second.due_ns), &exec->second,
                      /*live=*/true);
    }
  }
  for (const Samples& window : lags) t.AddEpisodeLags(window);
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].is_write) continue;
    t.AddRead(reads[i], ReadId(0, i), args.trace);
    last_done = std::max(last_done, reads[i].done_ns);
  }
  t.replay_tx_per_s.Add(static_cast<double>(observed + t.reads_done) * 1e9 /
                        static_cast<double>(last_done - start));
  if (args.trace) t.AddPipeline(*pipeline);

  const double slip_p99 = t.slip_us.Quantile(0.99);
  t.Check("gen_slip_p99_le_1000us", slip_p99 <= kMaxSlipUs,
          "p99 " + std::to_string(slip_p99) + " us", /*output=*/false);
  const Status serial =
      CheckAgainstSerial(*pipeline, *db, reference, &t.user_bytes);
  t.Check("replica_equals_serial_replay", serial.ok(), serial.ToString(),
          /*output=*/true);
  Result<qt::ConsistencyReport> audit = qt::CheckReplicaConsistency(
      pipeline->cluster(), *db, pipeline->translator());
  t.Check("replica_consistent_with_primary",
          audit.ok() && audit->consistent(),
          audit.ok() ? audit->Summary() : audit.status().ToString(),
          /*output=*/true);
  t.replica_ratio.Add(ReplicaBytesPerUserByte(pipeline->cluster(), *db));

  RunReport report;
  TXREP_RETURN_IF_ERROR(Finish(args, t, &report));
  report.validity.push_back({"gen.slip_us.p99", slip_p99, "us",
                             static_cast<int64_t>(t.slip_us.size())});
  return report;
}

}  // namespace

Result<RunReport> RunWorkload(const RunArgs& args) {
  if (args.workload == "tpcc_catchup") {
    return RunCatchup(args);
  }
  if (args.workload == "tpcw_live") return RunLive(args);
  return Status::InvalidArgument("unknown workload '" + args.workload + "'");
}

}  // namespace txrep::benchsuite
