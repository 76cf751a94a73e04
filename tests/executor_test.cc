#include <gtest/gtest.h>

#include "sem/rt/oracle.h"
#include "txn/executor.h"
#include "workload/workload.h"

namespace semcor {
namespace {

TEST(ExecStatsTest, Percentiles) {
  // Nearest rank, reported as the upper bound of the histogram bucket that
  // holds it. Below 64 ns the buckets are exact.
  ExecStats exact;
  for (int64_t ns = 1; ns <= 10; ++ns) exact.latency_ns.Record(ns);
  EXPECT_DOUBLE_EQ(exact.LatencyPercentileUs(0), 0.001);
  EXPECT_DOUBLE_EQ(exact.LatencyPercentileUs(50), 0.005);  // rank 5, no lerp
  EXPECT_DOUBLE_EQ(exact.LatencyPercentileUs(100), 0.010);

  // Above that, within the ~3% bucket width and never below the sample.
  ExecStats stats;
  for (int64_t us = 10; us <= 100; us += 10) stats.latency_ns.Record(us * 1000);
  EXPECT_GE(stats.LatencyPercentileUs(0), 10);
  EXPECT_LE(stats.LatencyPercentileUs(0), 10 * 1.04);
  EXPECT_GE(stats.LatencyPercentileUs(50), 50);
  EXPECT_LE(stats.LatencyPercentileUs(50), 50 * 1.04);
  EXPECT_GE(stats.LatencyPercentileUs(100), 100);
  EXPECT_LE(stats.LatencyPercentileUs(100), 100 * 1.04);
  EXPECT_EQ(ExecStats().LatencyPercentileUs(50), 0);
}

TEST(ExecStatsTest, Merge) {
  ExecStats a, b;
  a.committed = 3;
  a.aborted = 1;
  a.latency_ns.Record(1000);
  b.committed = 2;
  b.deadlocks = 4;
  b.latency_ns.Record(2000);
  b.latency_ns.Record(3000);
  a.Merge(b);
  EXPECT_EQ(a.committed, 5);
  EXPECT_EQ(a.aborted, 1);
  EXPECT_EQ(a.deadlocks, 4);
  EXPECT_EQ(a.latency_ns.Count(), 3u);
  EXPECT_EQ(a.latency_ns.Max(), 3000);
  // Nearest rank over the merged sample {1, 2, 3} µs.
  EXPECT_GE(a.LatencyPercentileUs(50), 2);
  EXPECT_LT(a.LatencyPercentileUs(50), 3);
  EXPECT_GE(a.LatencyPercentileUs(100), 3);
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : mgr_(&store_, &locks_) {}

  Store store_;
  LockManager locks_;
  TxnManager mgr_;
};

TEST_F(ExecutorTest, BankingMixedLevelsStaysCorrect) {
  Workload w = MakeBankingWorkload(8);
  ASSERT_TRUE(w.setup(&store_).ok());
  MapEvalContext initial = store_.SnapshotToMap();
  CommitLog log;
  ConcurrentExecutor executor(&mgr_, 4);
  double wall = 0;
  ExecStats stats = executor.Run(
      [&](Rng& rng) {
        return w.DrawFromMix(rng, w.paper_levels, IsoLevel::kSerializable);
      },
      40, RetryPolicy{.max_attempts = 21, .backoff_base_us = 50}, &log,
      &wall);
  EXPECT_GT(stats.committed, 0);
  EXPECT_EQ(stats.committed, static_cast<long>(log.size()));
  EXPECT_EQ(stats.retries_exhausted, 0);
  OracleReport report =
      CheckSemanticCorrectness(initial, store_, log, w.app.invariant);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(ExecutorTest, HighContentionSerializableStaysCorrect) {
  // Every transaction hammers one account at SERIALIZABLE: whatever mix of
  // blocking, deadlock-victim aborts, and retries occurs, the outcome must
  // be semantically correct. (The write-skew counterpart is demonstrated
  // deterministically in schedule_test and statistically in bench E4.)
  Workload w = MakeBankingWorkload(1);
  ASSERT_TRUE(w.setup(&store_).ok());
  MapEvalContext initial = store_.SnapshotToMap();
  CommitLog log;
  ConcurrentExecutor executor(&mgr_, 4);
  double wall = 0;
  ExecStats stats = executor.Run(
      [&](Rng& rng) {
        WorkItem item;
        item.program = w.instantiate(
            rng.Bernoulli(0.5) ? "Withdraw_sav" : "Deposit_ch", rng);
        item.level = IsoLevel::kSerializable;
        return item;
      },
      25, RetryPolicy{.max_attempts = 51, .backoff_base_us = 50}, &log,
      &wall);
  EXPECT_GT(stats.committed, 0);
  EXPECT_EQ(stats.retries_exhausted, 0);
  OracleReport report =
      CheckSemanticCorrectness(initial, store_, log, w.app.invariant);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(ExecutorTest, DeadlockStatsAgreeAcrossLayers) {
  // Deadlock-heavy run: a tiny banking world at SERIALIZABLE with blocking
  // locks forces lock-order cycles. The lock manager counts deadlocks where
  // it detects them (wait-for cycle / wait timeout) and the executor counts
  // attempts that failed with Code::kDeadlock — the two tallies must agree.
  Workload w = MakeBankingWorkload(2);
  ASSERT_TRUE(w.setup(&store_).ok());
  CommitLog log;
  ConcurrentExecutor executor(&mgr_, 4);
  double wall = 0;
  RetryPolicy retry;
  retry.max_attempts = 8;
  retry.backoff_base_us = 0;  // no backoff: maximize lock-cycle pressure
  ExecStats stats = executor.Run(
      [&](Rng& rng) {
        WorkItem item;
        item.program = w.instantiate(
            rng.Bernoulli(0.5) ? "Withdraw_sav" : "Deposit_ch", rng);
        item.level = IsoLevel::kSerializable;
        return item;
      },
      50, retry, &log, &wall);
  EXPECT_GT(stats.committed, 0);
  EXPECT_EQ(locks_.stats().deadlocks, stats.deadlocks);
}

TEST_F(ExecutorTest, TpccMixAtPaperLevelsCorrect) {
  Workload w = MakeTpccWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  MapEvalContext initial = store_.SnapshotToMap();
  CommitLog log;
  ConcurrentExecutor executor(&mgr_, 3);
  double wall = 0;
  ExecStats stats = executor.Run(
      [&](Rng& rng) {
        return w.DrawFromMix(rng, w.paper_levels, IsoLevel::kSerializable);
      },
      30, RetryPolicy{.max_attempts = 21, .backoff_base_us = 50}, &log,
      &wall);
  EXPECT_GT(stats.committed, 0);
  EXPECT_EQ(stats.retries_exhausted, 0);
  OracleReport report =
      CheckSemanticCorrectness(initial, store_, log, w.app.invariant);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace semcor
