#ifndef SEMCOR_TXN_EXECUTOR_H_
#define SEMCOR_TXN_EXECUTOR_H_

#include <functional>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "fault/policy.h"
#include "lock/lock_manager.h"
#include "txn/interpreter.h"

namespace semcor {

/// One unit of work for the concurrent executor.
struct WorkItem {
  std::shared_ptr<const TxnProgram> program;
  IsoLevel level = IsoLevel::kSerializable;
};

/// Aggregated execution statistics.
struct ExecStats {
  long committed = 0;
  long aborted = 0;        ///< attempts that ended aborted (any reason)
  long deadlocks = 0;
  long fcw_conflicts = 0;  ///< first-committer-wins aborts
  long injected_faults = 0;    ///< fault-injector decisions during the run
  long retries_exhausted = 0;  ///< work items dropped after max attempts

  /// SSI activity during the run (deltas from the manager's tracker): total
  /// serialization-failure aborts and their required/false-positive split.
  long ssi_aborts = 0;
  long ssi_false_positive_aborts = 0;
  long ssi_required_aborts = 0;
  Histogram latency_ns;  ///< per committed txn, begin to commit

  /// Lock-manager activity during the run (deltas, so back-to-back runs on
  /// one manager don't double-count): totals plus the per-shard break-down
  /// (grant/contention imbalance across stripes).
  LockManager::Stats lock;
  std::vector<LockManager::Stats> lock_shards;

  /// Durability activity during the run (deltas from the attached WAL; all
  /// zero when the manager runs memory-only).
  long wal_appends = 0;
  long fsyncs = 0;
  long group_commit_batches = 0;
  long group_commit_batch_commits = 0;  ///< commits those batches covered
  long recovery_replayed_txns = 0;  ///< commits redone by the last recovery

  double MeanBatchSize() const {
    return group_commit_batches > 0
               ? static_cast<double>(group_commit_batch_commits) /
                     static_cast<double>(group_commit_batches)
               : 0.0;
  }

  double Throughput(double wall_seconds) const {
    return wall_seconds > 0 ? committed / wall_seconds : 0;
  }
  /// Nearest-rank latency percentile (bucket upper bound), p in [0,100].
  double LatencyPercentileUs(double p) const {
    return static_cast<double>(latency_ns.Percentile(p)) / 1000.0;
  }

  void Merge(const ExecStats& other);
};

/// Multi-threaded closed-loop executor: each worker repeatedly draws a work
/// item from the generator and runs it with blocking locks, retrying aborted
/// attempts under a RetryPolicy.
class ConcurrentExecutor {
 public:
  ConcurrentExecutor(TxnManager* mgr, int threads)
      : mgr_(mgr), threads_(threads) {}

  using Generator = std::function<WorkItem(Rng&)>;

  /// Runs `items_per_thread` work items on each worker under `retry`;
  /// returns merged stats and the wall-clock seconds via `wall_seconds`.
  /// `faults` (optional) injects deterministic faults into every attempt
  /// and is reflected in ExecStats::injected_faults.
  ExecStats Run(const Generator& gen, int items_per_thread,
                const RetryPolicy& retry, CommitLog* log, double* wall_seconds,
                uint64_t seed = 42, FaultInjector* faults = nullptr);

 private:
  TxnManager* mgr_;
  int threads_;
};

}  // namespace semcor

#endif  // SEMCOR_TXN_EXECUTOR_H_
