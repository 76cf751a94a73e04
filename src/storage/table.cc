#include "storage/table.h"

namespace semcor {

const std::optional<Tuple>* RowEntry::Latest() const {
  if (uncommitted_owner) return &uncommitted;
  return LatestCommitted();
}

const std::optional<Tuple>* RowEntry::LatestCommitted() const {
  if (versions.empty()) return nullptr;
  return &versions.back().tuple;
}

const std::optional<Tuple>* RowEntry::AtSnapshot(Timestamp ts) const {
  const RowVersion* visible = NewestVisible(versions, ts);
  return visible == nullptr ? nullptr : &visible->tuple;
}

Timestamp RowEntry::LastCommitTs() const {
  return versions.empty() ? 0 : versions.back().commit_ts;
}

}  // namespace semcor
