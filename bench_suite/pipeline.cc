#include "pipeline.h"

#include <utility>

#include "codec/schema_codec.h"
#include "common/clock.h"
#include "net/socket.h"

namespace txrep::benchsuite {

bool IsBlinkNodeKey(const std::string& key) { return key.starts_with("!b_"); }

// --- TimedKvStore ------------------------------------------------------------

void TimedKvStore::Record(const char* hop, int64_t start_ns, int64_t end_ns) {
  busy_nanos_ += end_ns - start_ns;
  spans_->Add({hop, 0, NanosToMicros(start_ns), NanosToMicros(end_ns), ""});
}

void TimedKvStore::CountWrite(const kv::Key& key, const kv::Value& value) {
  ++write_entries_;
  bytes_written_ += static_cast<int64_t>(key.size() + value.size());
  if (IsBlinkNodeKey(key)) ++blink_node_writes_;
}

void TimedKvStore::CountRead(const kv::Key& key, bool hit) {
  ++get_keys_;
  if (!hit) ++get_misses_;
  if (IsBlinkNodeKey(key)) ++blink_node_reads_;
}

Status TimedKvStore::Put(const kv::Key& key, const kv::Value& value) {
  const int64_t start = NowNanos();
  Status status = inner_->Put(key, value);
  Record("kv.write", start, NowNanos());
  ++write_calls_;
  CountWrite(key, value);
  return status;
}

Status TimedKvStore::Delete(const kv::Key& key) {
  const int64_t start = NowNanos();
  Status status = inner_->Delete(key);
  Record("kv.write", start, NowNanos());
  ++write_calls_;
  CountWrite(key, {});
  return status;
}

Result<kv::Value> TimedKvStore::Get(const kv::Key& key) {
  const int64_t start = NowNanos();
  Result<kv::Value> value = inner_->Get(key);
  Record("kv.get", start, NowNanos());
  ++get_calls_;
  CountRead(key, value.ok());
  return value;
}

Status TimedKvStore::MultiWrite(std::span<const kv::KvWrite> batch,
                                size_t* applied) {
  const int64_t start = NowNanos();
  Status status = inner_->MultiWrite(batch, applied);
  Record("kv.multiwrite", start, NowNanos());
  ++write_calls_;
  for (const kv::KvWrite& w : batch) CountWrite(w.key, w.value);
  return status;
}

std::vector<Result<kv::Value>> TimedKvStore::MultiGet(
    std::span<const kv::Key> keys) {
  const int64_t start = NowNanos();
  std::vector<Result<kv::Value>> values = inner_->MultiGet(keys);
  Record("kv.multiget", start, NowNanos());
  ++get_calls_;
  for (size_t i = 0; i < keys.size(); ++i) CountRead(keys[i], values[i].ok());
  return values;
}

KvCounts TimedKvStore::counts() const {
  KvCounts c;
  c.get_calls = get_calls_.load();
  c.get_keys = get_keys_.load();
  c.get_misses = get_misses_.load();
  c.write_calls = write_calls_.load();
  c.write_entries = write_entries_.load();
  c.bytes_written = bytes_written_.load();
  c.blink_node_reads = blink_node_reads_.load();
  c.blink_node_writes = blink_node_writes_.load();
  c.busy_nanos = busy_nanos_.load();
  return c;
}

// --- TimedMessageSource ------------------------------------------------------

std::optional<mw::Message> TimedMessageSource::Stamp(
    std::optional<mw::Message> message) {
  if (message.has_value()) {
    last_pop_ns_ = NowNanos();
    last_publish_us_ = message->publish_micros;
    ++messages_;
    payload_bytes_ += static_cast<int64_t>(message->payload.size());
  }
  return message;
}

// --- read-side counting view -------------------------------------------------

namespace {

/// The view a traced read body hands the replica reader: counts the keys the
/// reader examines (whether the transaction buffer serves them from its
/// cache or the store).
class CountingView : public kv::KvStore {
 public:
  explicit CountingView(kv::KvStore* inner) : inner_(inner) {}

  Status Put(const kv::Key& key, const kv::Value& value) override {
    return inner_->Put(key, value);
  }
  Result<kv::Value> Get(const kv::Key& key) override {
    Count(key);
    return inner_->Get(key);
  }
  Status Delete(const kv::Key& key) override { return inner_->Delete(key); }
  Status MultiWrite(std::span<const kv::KvWrite> batch,
                    size_t* applied = nullptr) override {
    return inner_->MultiWrite(batch, applied);
  }
  std::vector<Result<kv::Value>> MultiGet(
      std::span<const kv::Key> keys) override {
    for (const kv::Key& key : keys) Count(key);
    return inner_->MultiGet(keys);
  }
  bool Contains(const kv::Key& key) override {
    Count(key);
    return inner_->Contains(key);
  }
  size_t Size() override { return inner_->Size(); }
  kv::StoreDump Dump() override { return inner_->Dump(); }

  int64_t keys = 0;
  int64_t blink_node_reads = 0;

 private:
  void Count(const kv::Key& key) {
    ++keys;
    if (IsBlinkNodeKey(key)) ++blink_node_reads;
  }

  kv::KvStore* inner_;
};

}  // namespace

// --- Pipeline ----------------------------------------------------------------

Result<std::unique_ptr<Pipeline>> Pipeline::Create(rel::Database* db,
                                                   const Options& options,
                                                   SpanLog* spans) {
  std::unique_ptr<Pipeline> pipeline(new Pipeline(db, spans));
  TXREP_RETURN_IF_ERROR(pipeline->Init(options));
  return pipeline;
}

Status Pipeline::Init(const Options& options) {
  db_->EnableMetrics(&registry_);
  cluster_ = std::make_unique<kv::KvCluster>(options.cluster, &registry_);
  TXREP_RETURN_IF_ERROR(cluster_->init_status());
  kv::KvStore* store = cluster_.get();
  if (spans_ != nullptr) {
    timed_store_ = std::make_unique<TimedKvStore>(cluster_.get(), spans_);
    store = timed_store_.get();
  }
  translator_ = std::make_unique<qt::QueryTranslator>(&db_->catalog());
  reader_ = std::make_unique<qt::ReplicaReader>(
      &db_->catalog(), blink::BlinkTreeOptions{}, &registry_);
  TXREP_RETURN_IF_ERROR(translator_->LoadSnapshot(cluster_.get(), *db_));
  snapshot_lsn_ = db_->log().LastLsn();

  core::TmOptions tm_options;
  tm_options.top_threads = options.tm_threads;
  tm_options.bottom_threads = options.tm_threads;
  tm_ = std::make_unique<core::TransactionManager>(store, translator_.get(),
                                                   tm_options, &registry_);
  waiter_ = std::thread([this] { WaitLoop(); });

  broker_ = std::make_unique<mw::Broker>(mw::BrokerOptions{}, &registry_);
  mw::PublisherOptions publisher_options;
  publisher_options.start_after_lsn = snapshot_lsn_;
  net::EndpointOptions endpoint_options;
  endpoint_options.topic = publisher_options.topic;
  endpoint_ = std::make_unique<net::NetEndpoint>(
      broker_.get(), std::move(endpoint_options), &registry_);
  endpoint_->SetCatalog(codec::EncodeCatalog(db_->catalog()));
  endpoint_->SetRetentionFloor(snapshot_lsn_);

  net::NetSubscriptionOptions subscription_options;
  subscription_options.topic = publisher_options.topic;
  subscription_options.resume_after_lsn = snapshot_lsn_;
  net::NetEndpoint* endpoint = endpoint_.get();
  subscription_ = std::make_unique<net::NetSubscription>(
      [endpoint]() -> Result<net::Socket> {
        TXREP_ASSIGN_OR_RETURN(auto pair, net::Socket::CreatePair());
        TXREP_RETURN_IF_ERROR(endpoint->ServeSocket(std::move(pair.first)));
        return std::move(pair.second);
      },
      subscription_options, &registry_);
  TXREP_RETURN_IF_ERROR(subscription_->WaitConnected());

  mw::MessageSource* source = subscription_.get();
  if (spans_ != nullptr) {
    timed_source_ = std::make_unique<TimedMessageSource>(source);
    source = timed_source_.get();
  }
  mw::SubscriberOptions agent_options;
  agent_options.resume_after_lsn = snapshot_lsn_;
  agent_ = std::make_unique<mw::SubscriberAgent>(
      source, [this](rel::LogTransaction txn) { return Sink(std::move(txn)); },
      &registry_, agent_options);
  publisher_ = std::make_unique<mw::PublisherAgent>(
      &db_->log(), broker_.get(), publisher_options, &registry_);
  return Status::OK();
}

Pipeline::~Pipeline() { Stop(); }

int64_t Pipeline::StartShipping() {
  const int64_t start = NowNanos();
  publisher_->Start();
  return start;
}

Status Pipeline::Sink(rel::LogTransaction txn) {
  Pending pending;
  pending.record.lsn = txn.lsn;
  pending.record.commit_us = txn.commit_micros;
  if (timed_source_ != nullptr) {
    pending.record.publish_us = timed_source_->last_publish_us();
    pending.record.pop_ns = timed_source_->last_pop_ns();
    pending.record.sink_ns = NowNanos();
  }
  pending.handle = tm_->SubmitUpdate(std::move(txn));
  if (timed_source_ != nullptr) pending.record.submitted_ns = NowNanos();
  pending_.Push(std::move(pending));
  return tm_->health();
}

void Pipeline::WaitLoop() {
  while (std::optional<Pending> pending = pending_.Pop()) {
    WriteRecord record = pending->record;
    core::Transaction& txn = *pending->handle;
    record.ok = txn.Wait().ok();
    record.done_ns = NowNanos();
    record.submit_us = txn.submit_micros;
    record.enqueue_us = txn.enqueue_micros;
    record.commit_wall_us = txn.commit_wall_micros;
    record.restarts = txn.restarts();
    std::lock_guard<std::mutex> lock(mu_);
    writes_.push_back(record);
    cv_.notify_all();
  }
}

bool Pipeline::WaitWritesObserved(int64_t count, int64_t deadline_ns) {
  const auto deadline = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline_ns));
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_until(lock, deadline, [&] {
    return static_cast<int64_t>(writes_.size()) >= count;
  });
}

std::shared_ptr<core::Transaction> Pipeline::SubmitRead(
    const rel::SelectStatement* stmt, uint64_t span_id,
    std::vector<rel::Row>* rows) {
  if (spans_ == nullptr) {
    return tm_->SubmitReadOnly([this, stmt, rows](kv::KvStore* view) {
      TXREP_ASSIGN_OR_RETURN(*rows, reader_->Select(view, *stmt));
      return Status::OK();
    });
  }
  return tm_->SubmitReadOnly([this, stmt, rows, span_id](kv::KvStore* view) {
    CountingView counting(view);
    const int64_t start = NowNanos();
    Result<std::vector<rel::Row>> result = reader_->Select(&counting, *stmt);
    spans_->Add({"qt.select", span_id, NanosToMicros(start),
                 NanosToMicros(NowNanos()), "core.to_commit"});
    ++selects_;
    keys_ += counting.keys;
    select_blink_reads_ += counting.blink_node_reads;
    if (!result.ok()) return result.status();
    rows_ += static_cast<int64_t>(result->size());
    *rows = std::move(*result);
    return Status::OK();
  });
}

void Pipeline::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // Same unwind order as TxRepSystem: stop the source of new batches, end the
  // wire sessions before the broker (a stalled session would park the
  // delivery thread), then the replica side.
  if (publisher_ != nullptr) publisher_->Stop();
  if (endpoint_ != nullptr) endpoint_->Stop();
  if (broker_ != nullptr) broker_->Shutdown();
  if (subscription_ != nullptr) subscription_->Close();
  if (agent_ != nullptr) agent_->Stop();
  if (tm_ != nullptr) {
    // A failed TM shows in the write records; here it only needs to be
    // drained.
    (void)tm_->WaitIdle();
  }
  pending_.Close();
  if (waiter_.joinable()) waiter_.join();
}

KvCounts Pipeline::kv_counts() const {
  return timed_store_ != nullptr ? timed_store_->counts() : KvCounts{};
}

ReadCounts Pipeline::read_counts() const {
  return {selects_.load(), rows_.load(), keys_.load(),
          select_blink_reads_.load()};
}

int64_t Pipeline::messages() const {
  return timed_source_ != nullptr ? timed_source_->messages() : 0;
}

int64_t Pipeline::payload_bytes() const {
  return timed_source_ != nullptr ? timed_source_->payload_bytes() : 0;
}

}  // namespace txrep::benchsuite
