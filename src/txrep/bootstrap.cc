#include "txrep/bootstrap.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "obs/names.h"
#include "qt/query_translator.h"

namespace txrep {

namespace {

/// Log tail batches replayed per ReadSince round trip during bootstrap.
constexpr size_t kTailBatch = 256;

}  // namespace

Result<std::unique_ptr<BootstrappedReplica>> BootstrappedReplica::Attach(
    TxRepSystem* system, BootstrapOptions options) {
  if (system == nullptr) {
    return Status::InvalidArgument("bootstrap: null system");
  }
  if (system->broker() == nullptr) {
    return Status::FailedPrecondition(
        "bootstrap: system is not started (no broker)");
  }
  std::unique_ptr<BootstrappedReplica> replica(
      new BootstrappedReplica(system, std::move(options)));
  TXREP_RETURN_IF_ERROR(replica->Start());
  return replica;
}

BootstrappedReplica::BootstrappedReplica(TxRepSystem* system,
                                         BootstrapOptions options)
    : system_(system), options_(std::move(options)) {}

BootstrappedReplica::~BootstrappedReplica() { Detach(); }

Status BootstrappedReplica::Start() {
  cluster_ = std::make_unique<kv::KvCluster>(options_.cluster, &registry_);
  TXREP_RETURN_IF_ERROR(cluster_->init_status());

  const qt::QueryTranslator& translator = system_->translator();
  // The primary's tracer (if any) also covers this replica's applies: a
  // sampled transaction gets an apply/e2e span per replica that applies it.
  applier_ = std::make_unique<core::SerialApplier>(
      cluster_.get(), &translator, &registry_, system_->tracer());
  reader_ = std::make_unique<qt::ReplicaReader>(
      &translator.catalog(), translator.blink_options(), &registry_);
  gate_ = std::make_unique<recov::CatchupGate>(options_.max_admission_lag,
                                               &registry_);
  c_tail_txns_ = registry_.GetCounter(obs::kRecovTailTxns);

  // Step 1: subscribe PAUSED before looking at any replication state. Every
  // message published from here on is held for us; nothing can be missed.
  mw::SubscriberOptions sub_options;
  sub_options.start_paused = true;
  subscriber_ = std::make_unique<mw::SubscriberAgent>(
      system_->broker(), system_->topic(),
      [this](rel::LogTransaction txn) { return ApplySink(std::move(txn)); },
      &registry_, sub_options);

  // Step 2: install the latest durable checkpoint, or start empty.
  uint64_t epoch = 0;
  if (!options_.checkpoint_dir.empty()) {
    Result<recov::LoadedCheckpoint> loaded =
        recov::LoadLatestCheckpoint(options_.checkpoint_dir, &registry_);
    if (loaded.ok()) {
      TXREP_RETURN_IF_ERROR(recov::InstallCheckpoint(*loaded, *cluster_));
      epoch = loaded->manifest.snapshot_epoch;
      installed_checkpoint_ = true;
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }
  if (!installed_checkpoint_) {
    // Fresh replica replaying from LSN 0: it needs the empty range-index
    // roots the primary's initial snapshot would have carried.
    TXREP_RETURN_IF_ERROR(translator.InitializeIndexes(cluster_.get()));
  }

  // Step 3: replay the log tail (lsn > epoch) directly from the primary's
  // transaction log — far faster than waiting for redelivery, and it bounds
  // how much the paused subscription queue has to hold.
  uint64_t after = epoch;
  while (true) {
    std::vector<rel::LogTransaction> batch =
        system_->database().log().ReadSince(after, kTailBatch);
    if (batch.empty()) break;
    if (batch.front().lsn != after + 1) {
      return Status::Corruption(
          "bootstrap: transaction log truncated past checkpoint epoch " +
          std::to_string(epoch) + " (first tail lsn " +
          std::to_string(batch.front().lsn) + ", expected " +
          std::to_string(after + 1) + ")");
    }
    for (const rel::LogTransaction& txn : batch) {
      TXREP_RETURN_IF_ERROR(applier_->Apply(txn));
      if (c_tail_txns_ != nullptr) c_tail_txns_->Increment();
    }
    after = batch.back().lsn;
  }
  bootstrap_lsn_ = after;

  // Step 4: open the tap. Held (and future) messages with lsn <= after are
  // acknowledged without re-applying; live replication takes over beyond it.
  subscriber_->ResumeFrom(after);

  gate_->Update(after, system_->database().log().LastLsn());
  monitor_running_.store(true, std::memory_order_release);
  monitor_thread_ = std::thread([this] { CatchupLoop(); });
  return Status::OK();
}

Status BootstrappedReplica::ApplySink(rel::LogTransaction txn) {
  check::MutexLock lock(&apply_mu_);
  const uint64_t last =
      std::max(applier_->last_applied_lsn(), bootstrap_lsn_);
  if (txn.lsn <= last) return Status::OK();  // Duplicate redelivery.
  if (txn.lsn > last + 1) {
    // Self-healing gap fill: a message published before we subscribed fell
    // outside both the held queue and the direct tail replay (the publisher
    // raced our subscription). Fetch the missing range straight from the
    // primary's log. Requires the primary not to truncate past `last`.
    std::vector<rel::LogTransaction> missing =
        system_->database().log().ReadSince(last, txn.lsn - last - 1);
    if (missing.empty() || missing.front().lsn != last + 1 ||
        missing.back().lsn != txn.lsn - 1) {
      return Status::Corruption(
          "bootstrap: lsn gap " + std::to_string(last + 1) + ".." +
          std::to_string(txn.lsn - 1) +
          " not recoverable from the primary log");
    }
    for (const rel::LogTransaction& fill : missing) {
      TXREP_RETURN_IF_ERROR(applier_->Apply(fill));
      if (c_tail_txns_ != nullptr) c_tail_txns_->Increment();
    }
  }
  TXREP_RETURN_IF_ERROR(applier_->Apply(txn));
  gate_->Update(txn.lsn, system_->database().log().LastLsn());
  return Status::OK();
}

void BootstrappedReplica::CatchupLoop() {
  while (monitor_running_.load(std::memory_order_acquire)) {
    const uint64_t applied =
        std::max(applier_->last_applied_lsn(), bootstrap_lsn_);
    gate_->Update(applied, system_->database().log().LastLsn());
    if (gate_->IsOpen()) return;  // Opens once, permanently.
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.catchup_poll_micros));
  }
}

Result<std::vector<rel::Row>> BootstrappedReplica::Query(
    const rel::SelectStatement& stmt) {
  TXREP_RETURN_IF_ERROR(gate_->CheckReadAdmissible());
  return reader_->Select(cluster_.get(), stmt);
}

bool BootstrappedReplica::WaitUntilCaughtUp(int64_t timeout_micros) {
  return gate_->WaitUntilOpenFor(timeout_micros);
}

void BootstrappedReplica::Detach() {
  if (detached_) return;
  detached_ = true;
  if (subscriber_ != nullptr) subscriber_->Stop();
  monitor_running_.store(false, std::memory_order_release);
  if (monitor_thread_.joinable()) monitor_thread_.join();
}

}  // namespace txrep
