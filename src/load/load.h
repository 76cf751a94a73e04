#ifndef SEMCOR_LOAD_LOAD_H_
#define SEMCOR_LOAD_LOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/histogram.h"
#include "load/clock.h"
#include "load/rate.h"

namespace semcor::load {

/// Open-loop load generator configuration (the pgbench --rate / YCSB
/// target discipline). Operations *arrive* at `target_rate` regardless of
/// completion speed; `connections` should comfortably exceed `workers` so
/// a stalled server queues work instead of throttling arrivals.
struct LoadOptions {
  double target_rate = 200.0;     ///< arrivals per second
  int workers = 4;                ///< executing threads
  int connections = 16;           ///< connection slots, partitioned by worker
  int64_t warmup_us = 0;          ///< arrivals before this are not recorded
  int64_t measure_us = 1000000;   ///< recorded window after warmup
  /// Backlog grace: an operation whose turn comes more than this long after
  /// the measurement window closed is dropped (counted, never run) — the
  /// open-loop equivalent of a client giving up on an overloaded server.
  int64_t max_drain_us = 2000000;
};

/// One executed operation, as reported by the operation callback.
struct OpOutcome {
  std::string type;        ///< transaction type (histogram key)
  bool committed = false;
  bool busy = false;       ///< server shed it (BUSY / retry-after)
  int busy_retries = 0;    ///< BUSY bounces absorbed before the outcome
};

/// The operation to run: `connection` identifies the connection slot
/// (stable per slot, so a net::Client can live behind each), `op_index` is
/// the global arrival index. Runs on a worker thread.
using OpFn = std::function<OpOutcome(int connection, uint64_t op_index)>;

/// Aggregated per-transaction-type results over the measurement window.
struct TypeStats {
  Histogram latency;       ///< µs from *scheduled arrival* to completion
  long completed = 0;
  long committed = 0;
  long aborted = 0;
  long busy = 0;
  long busy_retries = 0;
};

struct LoadReport {
  std::map<std::string, TypeStats> per_type;
  Histogram latency;       ///< all measured operations
  long scheduled = 0;      ///< arrivals inside warmup+measure windows
  long measured = 0;       ///< completions recorded in the histograms
  long committed = 0;      ///< measured commits
  long aborted = 0;        ///< measured aborts (incl. forced rollbacks)
  long busy = 0;           ///< measured BUSY outcomes
  long dropped = 0;        ///< arrivals abandoned past the drain horizon
  double measured_seconds = 0;
  /// Measured commits per second of measurement window.
  double throughput() const {
    return measured_seconds > 0 ? static_cast<double>(committed) /
                                      measured_seconds
                                : 0;
  }
};

/// Drives OpFn at the configured open-loop rate through warmup, measure,
/// and drain phases. Latency is recorded from each operation's *scheduled*
/// arrival time, so time an operation spends queued behind a slow server is
/// part of its latency (coordinated-omission-safe); only operations whose
/// scheduled arrival falls inside the measurement window are recorded.
class LoadGenerator {
 public:
  LoadGenerator(LoadOptions options, Clock* clock, OpFn op);
  LoadReport Run();

 private:
  LoadOptions options_;
  Clock* clock_;
  OpFn op_;
};

}  // namespace semcor::load

#endif  // SEMCOR_LOAD_LOAD_H_
