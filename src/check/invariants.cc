#include "check/invariants.h"

#include "qt/consistency_checker.h"

namespace txrep::check {

Status CheckReplicaEquivalence(kv::KvStore& store, rel::Database& db,
                               const qt::QueryTranslator& translator) {
  Result<qt::ConsistencyReport> report =
      qt::CheckReplicaConsistency(store, db, translator);
  TXREP_RETURN_IF_ERROR(report.status());
  if (report->consistent()) return Status::OK();
  std::string message = report->Summary();
  for (const std::string& violation : report->violations) {
    message += "; ";
    message += violation;
  }
  return Status::FailedPrecondition(std::move(message));
}

}  // namespace txrep::check
