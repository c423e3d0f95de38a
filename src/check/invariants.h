#ifndef TXREP_CHECK_INVARIANTS_H_
#define TXREP_CHECK_INVARIANTS_H_

#include "common/status.h"
#include "kv/kv_store.h"
#include "qt/query_translator.h"
#include "rel/database.h"

namespace txrep::check {

/// Full replica-equivalence audit (DESIGN.md §8): every row object present
/// and byte-equal to the database row, hash-index postings exactly the
/// matching row keys, every B-link range index structurally valid with
/// exactly the expected entries, no stray objects. Folds the consistency
/// checker's violation list into one FailedPrecondition status so callers
/// can TXREP_RETURN_IF_ERROR it. Pair with a quiesced pipeline.
Status CheckReplicaEquivalence(kv::KvStore& store, rel::Database& db,
                               const qt::QueryTranslator& translator);

}  // namespace txrep::check

#endif  // TXREP_CHECK_INVARIANTS_H_
