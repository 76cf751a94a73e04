// E13 — incremental static analysis at scale (ISSUE 8 tentpole).
//
// Generates suites with up to hundreds of transaction types and measures:
//
//   * cold sweep  — a fresh IncrementalAdvisor advising every type, i.e.
//     O(K^2) pair obligations through the memoized Fourier-Motzkin core;
//   * incremental — re-registering ONE edited type into the warm advisor
//     and re-advising everything: the per-(pair, level) obligation cache
//     serves every untouched pair, so only the O(K) pairs that mention the
//     edited type are re-checked.
//
// The headline claim mirrors the paper's §5 modularity argument: because
// the theorems' conditions quantify over one interfering type at a time,
// editing one of K types invalidates O(K) obligations, not O(K^2). The
// report also records the decision-memo hit rates and a parallel cold
// sweep on the work-stealing pool (informative only: single-core CI boxes
// cannot show wall-clock speedup, so we report host parallelism rather
// than asserting on it).
//
// A second table times the startup sweep a server pays before it accepts a
// client (Server::Start: a fresh serial IncrementalAdvisor, AdviseAll) on
// the shipped workloads and two TPC-C scales. It is reported, not gated.

#include <algorithm>
#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "sem/check/incremental.h"
#include "sem/check/suitegen.h"
#include "workload/workload.h"

namespace semcor {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct SweepResult {
  double cold_ms = 0;
  double incr_ms = 0;
  int64_t cold_pairs = 0;
  int64_t incr_pairs = 0;
  int64_t incr_hits = 0;
  int64_t invalidated = 0;
  MemoStats memo;
};

SweepResult RunSweep(int k, uint64_t seed, int threads) {
  SuiteOptions suite;
  suite.num_types = k;
  suite.seed = seed;

  IncrementalOptions options;
  options.threads = threads;
  IncrementalAdvisor advisor(MakeGeneratedSuite(suite), options);

  SweepResult r;
  auto start = std::chrono::steady_clock::now();
  advisor.AdviseAll();
  r.cold_ms = MsSince(start);
  const IncrementalStats after_cold = advisor.stats();
  r.cold_pairs = after_cold.pair_checks;

  // The developer edit: one of K types changes shape; its fingerprint
  // differs, so exactly the cached pairs mentioning it are invalidated.
  advisor.RegisterType(MakeEditedType(suite, k / 2));
  start = std::chrono::steady_clock::now();
  advisor.AdviseAll();
  r.incr_ms = MsSince(start);
  const IncrementalStats after_incr = advisor.stats();
  r.incr_pairs = after_incr.pair_checks - after_cold.pair_checks;
  r.incr_hits = after_incr.pair_hits - after_cold.pair_hits;
  r.invalidated = after_incr.invalidated;
  r.memo = advisor.memo()->Stats();
  return r;
}

/// Wall times, sorted, of `runs` startup sweeps of `app`, each on a fresh
/// advisor (nothing is shared between runs, as between two server starts).
std::vector<double> TimeStartupSweeps(const Application& app, int runs) {
  std::vector<double> ms;
  for (int i = 0; i < runs; ++i) {
    const auto start = std::chrono::steady_clock::now();
    IncrementalAdvisor advisor(app, IncrementalOptions{});
    advisor.AdviseAll();
    ms.push_back(MsSince(start));
  }
  std::sort(ms.begin(), ms.end());
  return ms;
}

}  // namespace
}  // namespace semcor

int main(int argc, char** argv) {
  using namespace semcor;

  int big_k = 200;
  uint64_t seed = 7;
  cli::Flags flags("bench_e13_advisor",
                   "E13: cold-sweep vs incremental re-check latency of the "
                   "memoized pair-obligation advisor on generated suites.");
  flags.Int("types", &big_k, "largest suite size K");
  flags.U64("seed", &seed, "suite generator seed");
  if (!flags.Parse(argc, argv)) return 2;
  if (flags.help_requested() || flags.version_requested()) return 0;

  const unsigned hw = std::thread::hardware_concurrency();
  const int par_threads = hw > 1 ? static_cast<int>(hw) : 2;

  bench::Banner("E13: incremental obligation checking at scale");
  std::printf("host parallelism: %u hardware thread(s)\n\n", hw);

  bench::Table table({"K", "cold (ms)", "incr (ms)", "speedup", "cold pairs",
                      "incr pairs", "cache hits", "invalidated"});
  bench::JsonReport json("E13");
  json.Scalar("host_threads", static_cast<long>(hw));
  json.Scalar("seed", static_cast<long>(seed));

  double big_speedup = 0;
  SweepResult big{};
  const int sizes[] = {big_k / 8, big_k / 4, big_k / 2, big_k};
  for (int k : sizes) {
    if (k < 4) continue;
    const SweepResult r = RunSweep(k, seed, /*threads=*/1);
    const double speedup = r.incr_ms > 0 ? r.cold_ms / r.incr_ms : 0;
    table.AddRow({std::to_string(k), bench::Fmt(r.cold_ms),
                  bench::Fmt(r.incr_ms), bench::Fmt(speedup) + "x",
                  std::to_string(r.cold_pairs), std::to_string(r.incr_pairs),
                  std::to_string(r.incr_hits), std::to_string(r.invalidated)});
    if (k == big_k) {
      big = r;
      big_speedup = speedup;
    }
  }
  table.Print();
  json.AddTable("sweep", table);

  // Parallel cold sweep at a mid size: the pair driver fans out over the
  // work-stealing pool. Deterministic results; wall-clock gain requires
  // real cores, so this is recorded, not asserted.
  const int par_k = big_k / 2 >= 4 ? big_k / 2 : big_k;
  const auto par_start = std::chrono::steady_clock::now();
  {
    IncrementalOptions par_options;
    par_options.threads = par_threads;
    IncrementalAdvisor par(MakeGeneratedSuite(par_k, seed), par_options);
    par.AdviseAll();
  }
  const double par_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - par_start)
          .count();
  std::printf("\nparallel cold sweep: K=%d, %d threads: %.1f ms\n", par_k,
              par_threads, par_ms);
  json.Scalar("parallel_threads", static_cast<long>(par_threads));
  json.Scalar("parallel_k", static_cast<long>(par_k));
  json.Scalar("parallel_cold_ms", par_ms);

  // Startup sweeps: what Server::Start spends in the §5 analysis.
  constexpr int kSweepRuns = 5;
  std::printf("\nstartup sweep (fresh serial advisor, AdviseAll; %d runs):\n",
              kSweepRuns);
  const std::pair<const char*, Workload> workloads[] = {
      {"banking", MakeBankingWorkload()},
      {"payroll", MakePayrollWorkload()},
      {"mailing", MakeMailingWorkload()},
      {"orders", MakeOrdersWorkload(false)},
      {"orders_unique", MakeOrdersWorkload(true)},
      {"tpcc(2,2,8,16)", MakeTpccWorkload(2, 2, 8, 16)},
      {"tpcc(4,4,16,64)", MakeTpccWorkload(4, 4, 16, 64)},
  };
  bench::Table sweeps({"workload", "types", "min (ms)", "median (ms)"});
  for (const auto& [name, w] : workloads) {
    const std::vector<double> ms = TimeStartupSweeps(w.app, kSweepRuns);
    sweeps.AddRow({name, std::to_string(w.app.types.size()),
                   bench::Fmt(ms.front()), bench::Fmt(ms[ms.size() / 2])});
  }
  sweeps.Print();
  json.AddTable("startup_sweep", sweeps);

  json.Scalar("types", static_cast<long>(big_k));
  json.Scalar("cold_ms", big.cold_ms);
  json.Scalar("incremental_ms", big.incr_ms);
  json.Scalar("speedup", big_speedup);
  json.Scalar("speedup_ok", big_speedup >= 10.0 ? 1L : 0L);
  json.Scalar("cold_pair_checks", static_cast<long long>(big.cold_pairs));
  json.Scalar("incremental_pair_checks",
              static_cast<long long>(big.incr_pairs));
  json.Scalar("incremental_cache_hits", static_cast<long long>(big.incr_hits));
  json.Scalar("invalidated", static_cast<long long>(big.invalidated));
  json.Scalar("memo_hits", static_cast<long long>(big.memo.hits));
  json.Scalar("memo_misses", static_cast<long long>(big.memo.misses));
  json.Scalar("memo_entries", static_cast<long long>(big.memo.entries));
  json.Scalar("memo_interned_nodes",
              static_cast<long long>(big.memo.interned_nodes));

  std::printf(
      "\nK=%d: cold %.1f ms vs incremental %.1f ms after a one-type edit "
      "(%.1fx; %lld vs %lld pair checks)\n",
      big_k, big.cold_ms, big.incr_ms, big_speedup,
      static_cast<long long>(big.cold_pairs),
      static_cast<long long>(big.incr_pairs));

  if (!json.Write()) return 1;
  if (big_speedup < 10.0) {
    std::fprintf(stderr,
                 "[bench] FAIL: incremental speedup %.1fx < 10x at K=%d\n",
                 big_speedup, big_k);
    return 1;
  }
  return 0;
}
