#ifndef TXREP_BENCH_SUITE_PIPELINE_H_
#define TXREP_BENCH_SUITE_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/result.h"
#include "core/transaction_manager.h"
#include "kv/kv_cluster.h"
#include "mw/broker.h"
#include "mw/publisher.h"
#include "mw/subscriber.h"
#include "net/endpoint.h"
#include "net/subscription.h"
#include "obs/metrics.h"
#include "qt/query_translator.h"
#include "qt/replica_reader.h"
#include "rel/database.h"
#include "spans.h"

namespace txrep::benchsuite {

/// Operation counts seen by a TimedKvStore.
struct KvCounts {
  int64_t get_calls = 0;         // Get + MultiGet calls.
  int64_t get_keys = 0;          // Keys read by those calls.
  int64_t get_misses = 0;        // Keys that came back NotFound.
  int64_t write_calls = 0;       // MultiWrite + Put + Delete calls.
  int64_t write_entries = 0;     // Entries written by those calls.
  int64_t bytes_written = 0;     // Key + value bytes of those entries.
  int64_t blink_node_reads = 0;  // B-link node keys read.
  int64_t blink_node_writes = 0; // B-link node keys written.
  int64_t busy_nanos = 0;        // Time spent inside any call.
};

/// True for B-link node keys ("!b_TABLE_COLUMN_nodeId", codec/kv_keys.h).
/// Meta keys ("!bmeta_...") and row / hash-index keys are not nodes.
bool IsBlinkNodeKey(const std::string& key);

/// The replica store the TM, translator and reader see in a traced run:
/// forwards every call to the cluster, counts keys by kind, and records a
/// kv.get / kv.multiget / kv.multiwrite span per call (kv.write for single
/// Put/Delete calls, which the TM's batched apply path does not make).
class TimedKvStore : public kv::KvStore {
 public:
  TimedKvStore(kv::KvStore* inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  Status Put(const kv::Key& key, const kv::Value& value) override;
  Result<kv::Value> Get(const kv::Key& key) override;
  Status Delete(const kv::Key& key) override;
  Status MultiWrite(std::span<const kv::KvWrite> batch,
                    size_t* applied = nullptr) override;
  std::vector<Result<kv::Value>> MultiGet(
      std::span<const kv::Key> keys) override;
  bool Contains(const kv::Key& key) override { return inner_->Contains(key); }
  size_t Size() override { return inner_->Size(); }
  kv::StoreDump Dump() override { return inner_->Dump(); }
  Status Clear() override { return inner_->Clear(); }

  KvCounts counts() const;

 private:
  void Record(const char* hop, int64_t start_ns, int64_t end_ns);
  void CountWrite(const kv::Key& key, const kv::Value& value);
  void CountRead(const kv::Key& key, bool hit);

  kv::KvStore* inner_;
  SpanLog* spans_;
  std::atomic<int64_t> get_calls_{0};
  std::atomic<int64_t> get_keys_{0};
  std::atomic<int64_t> get_misses_{0};
  std::atomic<int64_t> write_calls_{0};
  std::atomic<int64_t> write_entries_{0};
  std::atomic<int64_t> bytes_written_{0};
  std::atomic<int64_t> blink_node_reads_{0};
  std::atomic<int64_t> blink_node_writes_{0};
  std::atomic<int64_t> busy_nanos_{0};
};

/// The subscriber's message source in a traced run: forwards to the wire
/// subscription and stamps when each message left it. Pop() and the sink
/// run on the subscriber's one receive thread, which is the only reader of
/// the stamps.
class TimedMessageSource : public mw::MessageSource {
 public:
  explicit TimedMessageSource(mw::MessageSource* inner) : inner_(inner) {}

  std::optional<mw::Message> Pop() override { return Stamp(inner_->Pop()); }
  std::optional<mw::Message> TryPop() override {
    return Stamp(inner_->TryPop());
  }
  void Close() override { inner_->Close(); }
  size_t Pending() const override { return inner_->Pending(); }

  int64_t last_pop_ns() const { return last_pop_ns_; }
  int64_t last_publish_us() const { return last_publish_us_; }
  int64_t messages() const { return messages_.load(); }
  int64_t payload_bytes() const { return payload_bytes_.load(); }

 private:
  std::optional<mw::Message> Stamp(std::optional<mw::Message> message);

  mw::MessageSource* inner_;
  int64_t last_pop_ns_ = 0;
  int64_t last_publish_us_ = 0;
  std::atomic<int64_t> messages_{0};
  std::atomic<int64_t> payload_bytes_{0};
};

/// Everything known about one replicated update transaction once its TM
/// handle completed. Fields marked (traced) are 0 in an untraced run.
struct WriteRecord {
  uint64_t lsn = 0;
  int64_t commit_us = 0;       // Primary commit (TxLog append).
  int64_t publish_us = 0;      // Broker publish of its message (traced).
  int64_t pop_ns = 0;          // Its message left the wire (traced).
  int64_t sink_ns = 0;         // Subscriber handed it to the sink (traced).
  int64_t submitted_ns = 0;    // SubmitUpdate returned (traced).
  int64_t submit_us = 0;       // Entered the TM.
  int64_t enqueue_us = 0;      // Last execution reached the commit queue.
  int64_t commit_wall_us = 0;  // Algorithm 1 commit decision.
  int64_t done_ns = 0;         // Handle observed complete.
  int restarts = 0;
  bool ok = false;
};

/// Replica-side read counts of a traced run (per read execution).
struct ReadCounts {
  int64_t selects = 0;
  int64_t rows = 0;
  int64_t keys = 0;
  int64_t blink_node_reads = 0;
};

/// One deployment of the replication path, assembled from the public
/// components the way TxRepSystem::Start and AttachWireEndpoint wire them:
///
///   rel::Database -> mw::PublisherAgent -> mw::Broker -> net::NetEndpoint
///     => socketpair => net::NetSubscription -> mw::SubscriberAgent
///     -> core::TransactionManager -> qt::QueryTranslator -> kv::KvCluster
///
/// Assembled by hand because a traced run puts timing wrappers at seams
/// TxRepSystem hides: TimedKvStore under the TM and reader, and
/// TimedMessageSource under the subscriber.
///
/// Create() loads the database's current state into the replica as the
/// snapshot and completes the wire handshake; nothing ships until
/// StartShipping(). Every update the subscriber hands over is waited for by
/// one harness thread, which records a WriteRecord.
class Pipeline {
 public:
  struct Options {
    kv::KvClusterOptions cluster;
    int tm_threads = 20;  // Top and bottom pool each.
  };

  /// `db` must outlive the pipeline. `spans` is null for an untraced run.
  static Result<std::unique_ptr<Pipeline>> Create(rel::Database* db,
                                                  const Options& options,
                                                  SpanLog* spans);

  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Starts the publisher's log polling; returns the start instant (ns).
  int64_t StartShipping();

  /// Waits until `count` update transactions completed and were observed,
  /// or `deadline_ns` passed. True when they did.
  bool WaitWritesObserved(int64_t count, int64_t deadline_ns);

  /// Submits `stmt` as a read-only transaction at the current sequence
  /// point. The rows of its final execution land in `*rows`; a traced run
  /// records each execution as a qt.select span with id `span_id`. `stmt`
  /// and `rows` must stay alive until the handle completes.
  std::shared_ptr<core::Transaction> SubmitRead(const rel::SelectStatement* stmt,
                                                uint64_t span_id,
                                                std::vector<rel::Row>* rows);

  /// Stops shipping, drains the TM and joins the harness thread.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Records of every observed update, in LSN order. Call after Stop().
  const std::vector<WriteRecord>& writes() const { return writes_; }

  kv::KvCluster& cluster() { return *cluster_; }
  const qt::QueryTranslator& translator() const { return *translator_; }
  uint64_t snapshot_lsn() const { return snapshot_lsn_; }
  core::TmStats tm_stats() const { return tm_->stats(); }

  /// Traced-run counters (zero when untraced).
  KvCounts kv_counts() const;
  ReadCounts read_counts() const;
  int64_t messages() const;
  int64_t payload_bytes() const;

 private:
  struct Pending {
    WriteRecord record;
    std::shared_ptr<core::Transaction> handle;
  };

  Pipeline(rel::Database* db, SpanLog* spans) : db_(db), spans_(spans) {}
  Status Init(const Options& options);
  Status Sink(rel::LogTransaction txn);
  void WaitLoop();

  rel::Database* db_;
  SpanLog* spans_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<kv::KvCluster> cluster_;
  std::unique_ptr<TimedKvStore> timed_store_;
  std::unique_ptr<qt::QueryTranslator> translator_;
  std::unique_ptr<qt::ReplicaReader> reader_;
  std::unique_ptr<core::TransactionManager> tm_;
  std::unique_ptr<mw::Broker> broker_;
  std::unique_ptr<net::NetEndpoint> endpoint_;
  std::unique_ptr<net::NetSubscription> subscription_;
  std::unique_ptr<TimedMessageSource> timed_source_;
  std::unique_ptr<mw::SubscriberAgent> agent_;
  std::unique_ptr<mw::PublisherAgent> publisher_;
  uint64_t snapshot_lsn_ = 0;
  bool stopped_ = false;

  std::atomic<int64_t> selects_{0};
  std::atomic<int64_t> rows_{0};
  std::atomic<int64_t> keys_{0};
  std::atomic<int64_t> select_blink_reads_{0};

  BlockingQueue<Pending> pending_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<WriteRecord> writes_;  // Guarded by mu_ until Stop().
  std::thread waiter_;
};

}  // namespace txrep::benchsuite

#endif  // TXREP_BENCH_SUITE_PIPELINE_H_
