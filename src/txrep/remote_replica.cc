#include "txrep/remote_replica.h"

#include <utility>

#include "codec/schema_codec.h"
#include "common/logging.h"
#include "net/socket.h"

namespace txrep {

RemoteReplica::RemoteReplica(RemoteReplicaOptions options)
    : options_(std::move(options)) {}

RemoteReplica::~RemoteReplica() { Stop(); }

Status RemoteReplica::Start() {
  if (started_) return Status::InvalidArgument("replica already started");

  net::NetSubscription::SocketFactory factory = options_.socket_factory;
  if (!factory) {
    factory = [host = options_.host, port = options_.port]() {
      return net::Socket::Connect(host, port);
    };
  }
  subscription_ = std::make_unique<net::NetSubscription>(
      std::move(factory), options_.subscription, &registry_);
  TXREP_RETURN_IF_ERROR(subscription_->WaitConnected());

  // The handshake carried the primary's catalog: rebuild the relational
  // layout locally so key encoding and index maintenance match the primary's
  // byte for byte.
  const std::string encoded_catalog = subscription_->catalog();
  if (encoded_catalog.empty()) {
    return Status::Corruption("subscribe ack carried no catalog");
  }
  TXREP_ASSIGN_OR_RETURN(catalog_, codec::DecodeCatalog(encoded_catalog));

  cluster_ = std::make_unique<kv::KvCluster>(options_.cluster, &registry_);
  TXREP_RETURN_IF_ERROR(cluster_->init_status());

  blink::BlinkTreeOptions blink = options_.blink;
  if (blink.metrics == nullptr) blink.metrics = &registry_;
  translator_ = std::make_unique<qt::QueryTranslator>(&catalog_, blink);
  if (options_.subscription.resume_after_lsn == 0) {
    // Fresh replica: plant the empty B-link roots before any transaction
    // touches them. A resuming replica already has them (from its
    // checkpoint), and re-planting would wipe live index state.
    TXREP_RETURN_IF_ERROR(translator_->InitializeIndexes(cluster_.get()));
  }

  serial_ = std::make_unique<core::SerialApplier>(cluster_.get(),
                                                  translator_.get(),
                                                  &registry_);

  mw::SubscriberOptions agent_options;
  agent_options.resume_after_lsn = options_.subscription.resume_after_lsn;
  agent_ = std::make_unique<mw::SubscriberAgent>(
      subscription_.get(),
      [this](rel::LogTransaction txn) { return serial_->Apply(txn); },
      &registry_, agent_options);

  started_ = true;
  return Status::OK();
}

bool RemoteReplica::WaitForLsn(uint64_t lsn) {
  if (agent_ == nullptr) return false;
  return agent_->WaitForLsn(lsn);
}

uint64_t RemoteReplica::applied_lsn() const {
  if (agent_ == nullptr) return 0;
  return agent_->applied_lsn();
}

Status RemoteReplica::health() const {
  if (subscription_ != nullptr && !subscription_->health().ok()) {
    return subscription_->health();
  }
  if (agent_ != nullptr) return agent_->health();
  return Status::OK();
}

void RemoteReplica::Stop() {
  // Subscription first: closing the source ends the agent's receive loop
  // with a clean end-of-stream instead of a mid-pop race.
  if (subscription_ != nullptr) subscription_->Close();
  if (agent_ != nullptr) agent_->Stop();
}

}  // namespace txrep
