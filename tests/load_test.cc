// Tests for the open-loop load generator: deterministic rate scheduling
// under a fake clock and coordinated-omission accounting — queueing delay
// behind a slow operation must surface in recorded latency, and an
// overloaded run must drop (and count) arrivals it can no longer honour.

#include <gtest/gtest.h>

#include "load/clock.h"
#include "load/load.h"
#include "load/rate.h"

namespace semcor::load {
namespace {

TEST(RateSchedulerTest, ArrivalsAreDeterministicAndEvenlySpaced) {
  RateScheduler sched(/*start_us=*/1000, /*ops_per_sec=*/1000.0);
  // 1000 ops/s -> one arrival per millisecond, starting at the start time.
  EXPECT_EQ(sched.ArrivalUs(0), 1000);
  EXPECT_EQ(sched.ArrivalUs(1), 2000);
  EXPECT_EQ(sched.ArrivalUs(10), 11000);
  // Same parameters, same schedule — arrival times are a pure function.
  RateScheduler again(1000, 1000.0);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(sched.ArrivalUs(i), again.ArrivalUs(i)) << i;
  }
  // Monotone at fractional intervals too (300/s -> 3333.3µs spacing).
  RateScheduler frac(0, 300.0);
  for (uint64_t i = 1; i < 300; ++i) {
    EXPECT_GT(frac.ArrivalUs(i), frac.ArrivalUs(i - 1)) << i;
  }
  // Over a full second the fractional schedule lands within one interval
  // of the target rate.
  EXPECT_NEAR(static_cast<double>(frac.ArrivalUs(300)), 1e6,
              frac.interval_us() + 1);
}

TEST(LoadGeneratorTest, FastServiceRecordsOnlyMeasureWindow) {
  FakeClock clock;
  LoadOptions options;
  options.target_rate = 1000.0;   // 1ms spacing
  options.workers = 1;
  options.connections = 4;
  options.warmup_us = 100000;     // 100 arrivals warm up
  options.measure_us = 400000;    // 400 arrivals measured
  long calls = 0;
  LoadGenerator gen(options, &clock, [&](int conn, uint64_t) {
    ++calls;
    EXPECT_GE(conn, 0);
    EXPECT_LT(conn, 4);
    clock.AdvanceUs(10);  // 10µs service, far below the 1ms interval
    OpOutcome out;
    out.type = "T";
    out.committed = true;
    return out;
  });
  LoadReport report = gen.Run();
  EXPECT_EQ(report.scheduled, 500);
  EXPECT_EQ(calls, 500);
  EXPECT_EQ(report.measured, 400);  // warmup arrivals are executed, unrecorded
  EXPECT_EQ(report.committed, 400);
  EXPECT_EQ(report.dropped, 0);
  // An idle open loop has service-time latency only.
  EXPECT_LE(report.latency.Percentile(99), 16);
  EXPECT_EQ(report.per_type.at("T").completed, 400);
}

TEST(LoadGeneratorTest, SlowServiceSurfacesQueueingDelay) {
  // Coordinated omission: service takes 10ms against a 1ms arrival
  // interval, so operation i starts ~9ms*i behind its scheduled arrival. A
  // closed-loop harness would report 10ms forever; the open loop must show
  // latencies growing with the backlog.
  FakeClock clock;
  LoadOptions options;
  options.target_rate = 1000.0;
  options.workers = 1;
  options.connections = 1;
  options.warmup_us = 0;
  options.measure_us = 100000;    // 100 arrivals
  options.max_drain_us = 10000000;
  LoadGenerator gen(options, &clock, [&](int, uint64_t) {
    clock.AdvanceUs(10000);
    OpOutcome out;
    out.type = "slow";
    out.committed = true;
    return out;
  });
  LoadReport report = gen.Run();
  EXPECT_EQ(report.measured, 100);
  // Last arrival was scheduled at 99ms and completes at ~1000ms: the tail
  // latency is dominated by queueing, an order of magnitude beyond the
  // 10ms service time.
  EXPECT_GE(report.latency.Percentile(99), 800000);
  EXPECT_GE(report.latency.Percentile(50), 300000);
}

TEST(LoadGeneratorTest, OverloadPastDrainHorizonDropsArrivals) {
  FakeClock clock;
  LoadOptions options;
  options.target_rate = 1000.0;
  options.workers = 1;
  options.connections = 1;
  options.warmup_us = 0;
  options.measure_us = 100000;    // 100 arrivals, window closes at 100ms
  options.max_drain_us = 100000;  // backlog abandoned past 200ms
  long executed = 0;
  LoadGenerator gen(options, &clock, [&](int, uint64_t) {
    ++executed;
    clock.AdvanceUs(10000);  // 10x oversubscribed
    OpOutcome out;
    out.type = "slow";
    out.committed = true;
    return out;
  });
  LoadReport report = gen.Run();
  EXPECT_EQ(report.scheduled, 100);
  // ~20 operations fit before the drain horizon (200ms / 10ms); the rest
  // must be counted as dropped, not silently discarded or executed late.
  EXPECT_EQ(report.dropped, 100 - executed);
  EXPECT_GT(report.dropped, 0);
  EXPECT_EQ(report.measured, executed);
}

TEST(LoadGeneratorTest, FailedAndAbortOutcomesAreSplitPerType) {
  FakeClock clock;
  LoadOptions options;
  options.target_rate = 1000.0;
  options.workers = 1;
  options.connections = 2;
  options.warmup_us = 0;
  options.measure_us = 90000;  // 90 arrivals
  LoadGenerator gen(options, &clock, [&](int, uint64_t i) {
    clock.AdvanceUs(5);
    OpOutcome out;
    out.type = i % 3 == 0 ? "TNewOrder" : "TPayment";
    if (i % 9 == 1) {
      out.failed = true;
    } else {
      out.committed = i % 5 != 0;
    }
    return out;
  });
  LoadReport report = gen.Run();
  EXPECT_EQ(report.measured, 90);
  EXPECT_EQ(report.measured,
            report.committed + report.aborted + report.failed);
  EXPECT_EQ(report.failed, 10);  // i % 9 == 1 over 0..89
  ASSERT_TRUE(report.per_type.count("TNewOrder"));
  ASSERT_TRUE(report.per_type.count("TPayment"));
  const TypeStats& no = report.per_type.at("TNewOrder");
  const TypeStats& pay = report.per_type.at("TPayment");
  EXPECT_EQ(no.completed, 30);
  EXPECT_EQ(pay.completed, 60);
  EXPECT_EQ(no.completed + pay.completed, report.measured);
  EXPECT_GT(pay.failed, 0);
  EXPECT_EQ(no.failed + pay.failed, report.failed);
  EXPECT_GT(no.aborted + pay.aborted, 0);
}

}  // namespace
}  // namespace semcor::load
