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

/// Which version a read may see — the one decision that tells the isolation
/// levels apart (Berenson et al.). Every read of the store names one.
///
///   kind        image shown                          writer reported
///   latest      pending image, else newest committed pending writer
///   committed   newest committed                     none
///   snapshot    newest committed at or before ts     none
///   own         txn's pending image, else committed  txn, if its image shows
///   locking     as latest, but a pending delete      pending writer
///               shows the committed image it removes
struct ReadView {
  enum class Kind { kLatest, kCommitted, kSnapshot, kOwn, kLocking };
  Kind kind = Kind::kCommitted;
  Timestamp ts = 0;  ///< kSnapshot: the snapshot's timestamp
  TxnId txn = 0;     ///< kOwn: whose pending images show through

  static ReadView Latest() { return {Kind::kLatest}; }
  static ReadView Committed() { return {Kind::kCommitted}; }
  static ReadView Snapshot(Timestamp ts) { return {Kind::kSnapshot, ts}; }
  static ReadView Own(TxnId txn) { return {Kind::kOwn, 0, txn}; }
  static ReadView Locking() { return {Kind::kLocking}; }
};

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

/// A row image of nullopt encodes deletion (a tombstone); items are never
/// deleted.
inline bool IsDelete(const std::optional<Tuple>& image) { return !image; }
inline bool IsDelete(const Value&) { return false; }

/// One committed version of an item or row.
template <typename Image>
struct Version {
  Timestamp commit_ts = 0;
  Image image;
};

/// Version chain for one item or row plus at most one uncommitted image
/// owned by a single transaction (writers are serialized per entry by the
/// lock manager; SNAPSHOT writers install their images atomically at
/// commit). A row that has never been committed has no versions.
template <typename ImageT>
struct VersionChain {
  using Image = ImageT;

  std::vector<Version<Image>> versions;  ///< ascending commit_ts
  std::optional<TxnId> uncommitted_owner;
  Image uncommitted;

  /// The image this entry shows under `view`, or null when none is visible
  /// (an insert not yet committed, a snapshot older than every version).
  /// `*writer` receives the transaction reported with it (see ReadView).
  const Image* Visible(const ReadView& view,
                       std::optional<TxnId>* writer) const {
    writer->reset();
    const Image* committed =
        versions.empty() ? nullptr : &versions.back().image;
    switch (view.kind) {
      case ReadView::Kind::kCommitted:
        return committed;
      case ReadView::Kind::kSnapshot: {
        const Version<Image>* visible = NewestVisible(versions, view.ts);
        return visible == nullptr ? nullptr : &visible->image;
      }
      case ReadView::Kind::kOwn:
        if (uncommitted_owner != view.txn) return committed;
        *writer = view.txn;
        return &uncommitted;
      case ReadView::Kind::kLatest:
      case ReadView::Kind::kLocking:
        if (!uncommitted_owner) return committed;
        *writer = uncommitted_owner;
        // A locking reader must see a pending delete to wait for it.
        if (view.kind == ReadView::Kind::kLocking && IsDelete(uncommitted)) {
          return committed;
        }
        return &uncommitted;
    }
    return nullptr;
  }

  /// Commit timestamp of the newest committed version (0 if none).
  Timestamp LastCommitTs() const {
    return versions.empty() ? 0 : versions.back().commit_ts;
  }
};

using ItemEntry = VersionChain<Value>;
using RowEntry = VersionChain<std::optional<Tuple>>;
using RowVersion = Version<std::optional<Tuple>>;

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
