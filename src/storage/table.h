#ifndef SEMCOR_STORAGE_TABLE_H_
#define SEMCOR_STORAGE_TABLE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "storage/schema.h"

namespace semcor {

using TxnId = uint64_t;
using RowId = uint64_t;
using Timestamp = uint64_t;

/// The newest version in `versions` (ascending commit_ts, ties allowed)
/// with commit_ts <= ts, or null when every version is newer. Scans from the
/// back: a snapshot read almost always wants one of the last few versions,
/// and the answer is the same element a forward scan stopping at the first
/// newer version would return, because commit_ts never decreases.
template <typename Version>
const Version* NewestVisible(const std::vector<Version>& versions,
                             Timestamp ts) {
  for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
    if (it->commit_ts <= ts) return &*it;
  }
  return nullptr;
}

/// One committed version of a row. `tuple == nullopt` encodes deletion (a
/// tombstone); a row that has never been committed has no versions.
struct RowVersion {
  Timestamp commit_ts = 0;
  std::optional<Tuple> tuple;
};

/// Version chain for one row plus at most one uncommitted image owned by a
/// single transaction (writers are serialized per row by the lock manager;
/// SNAPSHOT writers install their images atomically at commit).
struct RowEntry {
  std::vector<RowVersion> versions;  ///< ascending commit_ts
  std::optional<TxnId> uncommitted_owner;
  std::optional<Tuple> uncommitted;  ///< nullopt = uncommitted delete

  /// Latest image including a pending uncommitted one (dirty read).
  const std::optional<Tuple>* Latest() const;
  /// Latest committed image.
  const std::optional<Tuple>* LatestCommitted() const;
  /// Image visible at snapshot `ts` (largest commit_ts <= ts).
  const std::optional<Tuple>* AtSnapshot(Timestamp ts) const;
  /// Commit timestamp of the newest committed version (0 if none).
  Timestamp LastCommitTs() const;
};

/// Versioned relational table. Not thread-safe on its own; the Store
/// serializes access.
class TableData {
 public:
  explicit TableData(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  const std::map<RowId, RowEntry>& rows() const { return rows_; }
  std::map<RowId, RowEntry>& mutable_rows() { return rows_; }

  RowId NextRowId() { return next_row_id_++; }

  /// Row-id watermark access for WAL checkpoints and recovery: a recovered
  /// table must hand out fresh ids above everything the log ever assigned.
  RowId PeekNextRowId() const { return next_row_id_; }
  void BumpNextRowId(RowId floor) {
    if (next_row_id_ < floor) next_row_id_ = floor;
  }

 private:
  Schema schema_;
  std::map<RowId, RowEntry> rows_;
  RowId next_row_id_ = 1;
};

}  // namespace semcor

#endif  // SEMCOR_STORAGE_TABLE_H_
