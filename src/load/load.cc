#include "load/load.h"

#include <atomic>
#include <thread>
#include <vector>

namespace semcor::load {

LoadGenerator::LoadGenerator(LoadOptions options, Clock* clock, OpFn op)
    : options_(std::move(options)), clock_(clock), op_(std::move(op)) {}

LoadReport LoadGenerator::Run() {
  const int workers = options_.workers < 1 ? 1 : options_.workers;
  const int connections =
      options_.connections < workers ? workers : options_.connections;
  const int conns_per_worker = connections / workers;

  const int64_t start_us = clock_->NowUs();
  const RateScheduler sched(start_us, options_.target_rate);
  const int64_t measure_start = start_us + options_.warmup_us;
  const int64_t stop_at = measure_start + options_.measure_us;
  const int64_t drain_horizon = stop_at + options_.max_drain_us;

  std::atomic<uint64_t> next_op{0};
  std::vector<LoadReport> partial(static_cast<size_t>(workers));

  auto worker_loop = [&](int w) {
    LoadReport& local = partial[static_cast<size_t>(w)];
    const int conn_base = w * conns_per_worker;
    uint64_t executed = 0;
    for (;;) {
      const uint64_t i = next_op.fetch_add(1, std::memory_order_relaxed);
      const int64_t arrival = sched.ArrivalUs(i);
      if (arrival >= stop_at) break;  // scheduling ends with the window
      ++local.scheduled;
      // Open loop: wait for the arrival if it is in the future; execute
      // immediately (backlog) if it is already past.
      clock_->SleepUntilUs(arrival);
      if (clock_->NowUs() > drain_horizon) {
        // The backlog outlived the drain grace — give up on this arrival
        // (and count it) rather than report a run that never happened.
        ++local.dropped;
        continue;
      }
      const int conn =
          conn_base + static_cast<int>(executed % static_cast<uint64_t>(
                                                      conns_per_worker));
      ++executed;
      OpOutcome out = op_(conn, i);
      const int64_t done = clock_->NowUs();
      // Only arrivals inside the measurement window are recorded, and the
      // latency clock starts at the *scheduled* arrival: queueing delay
      // behind an overloaded server is part of the number.
      if (arrival < measure_start) continue;
      const int64_t latency = done - arrival;
      ++local.measured;
      local.latency.Record(latency);
      TypeStats& t = local.per_type[out.type];
      t.latency.Record(latency);
      ++t.completed;
      if (out.failed) {
        ++t.failed;
        ++local.failed;
      } else if (out.committed) {
        ++t.committed;
        ++local.committed;
      } else {
        ++t.aborted;
        ++local.aborted;
      }
    }
  };

  if (workers == 1) {
    worker_loop(0);  // deterministic path for FakeClock-driven tests
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) threads.emplace_back(worker_loop, w);
    for (std::thread& t : threads) t.join();
  }

  LoadReport report;
  for (const LoadReport& p : partial) {
    report.scheduled += p.scheduled;
    report.measured += p.measured;
    report.committed += p.committed;
    report.aborted += p.aborted;
    report.failed += p.failed;
    report.dropped += p.dropped;
    report.latency.Merge(p.latency);
    for (const auto& [type, stats] : p.per_type) {
      TypeStats& t = report.per_type[type];
      t.latency.Merge(stats.latency);
      t.completed += stats.completed;
      t.committed += stats.committed;
      t.aborted += stats.aborted;
      t.failed += stats.failed;
    }
  }
  report.measured_seconds =
      static_cast<double>(options_.measure_us) / 1e6;
  return report;
}

}  // namespace semcor::load
