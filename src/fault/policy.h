#ifndef SEMCOR_FAULT_POLICY_H_
#define SEMCOR_FAULT_POLICY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "storage/table.h"

namespace semcor {

/// How a driver resolves a try-lock deadlock (every active transaction
/// blocked on another's lock).
enum class DeadlockPolicyKind {
  /// Abort the blocked transaction with the highest driver index (the
  /// historical StepDriver rule; deterministic and schedule-stable).
  kYoungestAbort,
  /// Wound-wait flavour: abort the blocked transaction that *began* last
  /// (largest transaction id). With lazy begin this can differ from the
  /// driver index order.
  kWoundWait,
  /// Tolerate `wait_bound` unproductive sweeps before falling back to
  /// youngest-abort. In try-lock drivers nothing progresses in between, so
  /// the bound only delays the abort — it models a wait-with-timeout
  /// resolver deterministically.
  kBoundedWait,
};

struct DeadlockPolicy {
  DeadlockPolicyKind kind = DeadlockPolicyKind::kYoungestAbort;
  int wait_bound = 4;  ///< kBoundedWait only
};

const char* DeadlockPolicyName(DeadlockPolicyKind kind);

/// Parses "youngest", "wound_wait", or "bounded_wait[:N]".
bool ParseDeadlockPolicy(const std::string& text, DeadlockPolicy* out);

/// Picks the victim among `blocked` (driver indices, ascending). `txn_id`
/// maps a driver index to its transaction id (0 if the run never began).
/// Returns -1 when `blocked` is empty.
int PickDeadlockVictim(const DeadlockPolicy& policy,
                       const std::vector<int>& blocked,
                       const std::function<TxnId(int)>& txn_id);

/// Retry discipline for the concurrent executor: how many attempts one work
/// item gets and how long to back off between them. The backoff is a pure
/// function of (salt, attempt) so that two runs with the same seed sleep
/// identically.
struct RetryPolicy {
  int max_attempts = 3;  ///< total attempts per work item (min 1)
  int backoff_base_us = 50;

  uint64_t BackoffUs(int attempt, uint64_t salt) const;
};

}  // namespace semcor

#endif  // SEMCOR_FAULT_POLICY_H_
