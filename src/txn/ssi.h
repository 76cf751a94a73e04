#ifndef SEMCOR_TXN_SSI_H_
#define SEMCOR_TXN_SSI_H_

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sem/expr/expr.h"
#include "storage/store.h"

namespace semcor {

/// Abort accounting for serializable snapshot isolation. An abort is
/// "required" when the dangerous structure it breaks could actually have
/// produced a serialization anomaly (the pivot's out-conflict committed
/// before the in-conflict's snapshot, so all three would survive into a
/// cycle); every other abort is a false positive of the conservative rule —
/// the count two-ids.spec documents as 12 for the read-only-anomaly family.
struct SsiCounters {
  long edges = 0;                  ///< rw-antidependencies recorded
  long aborts = 0;                 ///< serialization-failure decisions
  long false_positive_aborts = 0;  ///< aborts no actual cycle required
  long required_aborts = 0;        ///< aborts that prevented a real anomaly
};

/// Rw-antidependency tracker implementing SSI (Cahill/Fekete) on top of the
/// MVCC snapshot level. Each SSI transaction registers its snapshot
/// timestamp, its item/predicate reads and its buffered writes; the tracker
/// maintains the rw-edge graph between concurrent SSI transactions and
/// applies the dangerous-structure rule:
///
///   a structure Tin ->rw Pivot ->rw Tout (Tin == Tout allowed) must not
///   have all three commit with Tout committing first; when that is about
///   to happen, the pivot (if still active) or the acting transaction is
///   marked for serialization failure and fails its next operation/commit
///   with Status::Conflict.
///
/// Only SSI transactions participate: like postgres, SSI's guarantee holds
/// among SERIALIZABLE(-SSI) transactions, not against plain SNAPSHOT ones.
/// All methods are thread-safe behind one mutex; iteration is over id-keyed
/// ordered maps so decisions are deterministic for a given schedule.
class SsiTracker {
 public:
  /// Starts tracking an SSI transaction (called at Begin) and returns its
  /// snapshot timestamp, read from `snapshot_clock` under the tracker's
  /// mutex. Reading it there is what keeps garbage collection sound: a
  /// commit reaches the store before Commit records it, so every
  /// transaction the tracker knows as committed is visible to this snapshot
  /// and to every later one, and dropping it cannot lose a
  /// rw-antidependency. A snapshot
  /// read before the lock could miss a commit whose record this call then
  /// drops — write skew would commit unseen. `read_only` enables the Cahill
  /// READ ONLY optimization for this transaction: as the in-conflict of a
  /// dangerous structure it cannot produce an anomaly unless the
  /// out-conflict committed before its snapshot, so the conservative
  /// rule's other firings are skipped rather than counted as false-positive
  /// aborts. The declaration is revoked on its first actual write.
  Timestamp Register(TxnId id,
                     const std::function<Timestamp()>& snapshot_clock,
                     bool read_only = false);

  /// Fails with Status::Conflict when `id` was marked for serialization
  /// failure (doomed). Checked at the head of every operation and commit.
  Status Gate(TxnId id);

  // -- reader-side hooks (after the snapshot read executed) --
  Status OnItemRead(TxnId id, const std::string& name);
  Status OnPredRead(TxnId id, const std::string& table, const Expr& pred);

  // -- writer-side hooks (after the buffered write was recorded) --
  Status OnItemWrite(TxnId id, const std::string& name);
  Status OnRowWrite(TxnId id, const std::string& table,
                    const std::optional<Tuple>& old_image,
                    const std::optional<Tuple>& new_image);

  /// Commits `id`. Fails (Conflict) without calling `apply` when `id` is
  /// doomed or committing it now would complete a dangerous structure in
  /// which it is the pivot or the in-conflict — i.e. the structure's Tout
  /// already committed first. Otherwise runs `apply` (the store commit,
  /// yielding the commit timestamp) and, if that succeeds, records the
  /// commit; structures where `id` is the Tout doom their still-active
  /// pivots then. All of it holds the mutex, so no other transaction's
  /// check sees `id` committed in the store but still active here — a
  /// pivot in that state cannot be doomed any more, and its partner's
  /// commit would slip through. A failed `apply` leaves `id` registered;
  /// the caller aborts it.
  Result<Timestamp> Commit(TxnId id,
                           const std::function<Result<Timestamp>()>& apply);
  void OnAbort(TxnId id);

  SsiCounters counters() const;
  /// Forgets every transaction and edge but keeps nothing else; counters are
  /// reset too (the explorer calls this between runs via ResetIds).
  void Clear();

 private:
  struct RowWrite {
    std::string table;
    std::optional<Tuple> old_image;
    std::optional<Tuple> new_image;
  };
  struct TxnRec {
    Timestamp snapshot_ts = 0;
    Timestamp commit_ts = 0;  ///< 0 = still active
    bool read_only = false;   ///< declared READ ONLY (and not yet belied)
    bool doomed = false;
    std::string doom_reason;
    std::set<std::string> item_reads;
    std::vector<std::pair<std::string, Expr>> pred_reads;
    std::set<std::string> item_writes;
    std::vector<RowWrite> row_writes;
    std::set<TxnId> in_edges;   ///< readers R with R ->rw this
    std::set<TxnId> out_edges;  ///< writers W with this ->rw W

    bool committed() const { return commit_ts != 0; }
  };

  /// Records the rw-edge reader -> writer (deduped) and re-evaluates the
  /// dangerous-structure rule from the acting transaction's point of view.
  void AddEdgeLocked(TxnId reader, TxnId writer);
  /// True when the two transactions overlap in time (Cahill: only edges
  /// between concurrent transactions feed the conflict graph).
  bool ConcurrentLocked(const TxnRec& a, const TxnRec& b) const;
  /// Scans every (Tin, Pivot, Tout) structure and applies the failure rule.
  /// `acting` is the transaction whose hook is running; when
  /// `acting_committing`, its commit time is "now" (after every existing
  /// commit, before any other active transaction's). Returns Conflict when
  /// the acting transaction itself became the victim.
  Status CheckStructuresLocked(TxnId acting, bool acting_committing);
  void DoomLocked(TxnId victim, bool required, const std::string& why);
  bool MatchesPredLocked(const Expr& pred, const std::optional<Tuple>& t) const;
  Status GateLocked(TxnId id);

  mutable std::mutex mu_;
  std::map<TxnId, TxnRec> txns_;
  SsiCounters counters_;
};

}  // namespace semcor

#endif  // SEMCOR_TXN_SSI_H_
