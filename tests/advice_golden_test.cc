// Advice golden: the §5 sweep a server runs at startup (IncrementalAdvisor,
// default options), rendered with every obligation — passing ones included —
// for each shipped workload and two TPC-C scales: each type's RenderAdvice
// (markdown), then every level report of its ladder and its SNAPSHOT report
// through RenderLevelReport (plain text). Any drift in a verdict, an excuse,
// a failure detail or an obligation's order changes a byte of
// tests/golden/advice/<workload>.golden and fails here.
//
// Regenerate with `advice_golden_test --update-golden` (only when a change
// to the analysis is intended; say why in the commit).

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sem/check/incremental.h"
#include "sem/check/report.h"
#include "workload/workload.h"

namespace semcor {
namespace {

bool g_update_golden = false;

#ifndef SEMCOR_ADVICE_GOLDEN_DIR
#error "SEMCOR_ADVICE_GOLDEN_DIR must point at tests/golden/advice"
#endif

struct GoldenWorkload {
  std::string name;
  Workload (*make)();
};

const std::vector<GoldenWorkload>& Workloads() {
  static const std::vector<GoldenWorkload> kWorkloads = {
      {"banking", [] { return MakeBankingWorkload(); }},
      {"payroll", [] { return MakePayrollWorkload(); }},
      {"mailing", [] { return MakeMailingWorkload(); }},
      {"orders", [] { return MakeOrdersWorkload(false); }},
      {"orders_unique", [] { return MakeOrdersWorkload(true); }},
      {"tpcc_2_2_8_16", [] { return MakeTpccWorkload(2, 2, 8, 16); }},
      {"tpcc_4_4_16_64", [] { return MakeTpccWorkload(4, 4, 16, 64); }},
  };
  return kWorkloads;
}

std::string RenderSweep(const Workload& w) {
  IncrementalAdvisor advisor(w.app, IncrementalOptions{});
  ReportOptions markdown;
  markdown.include_passing = true;
  ReportOptions plain = markdown;
  plain.markdown = false;
  std::string out;
  for (const LevelAdvice& advice : advisor.AdviseAll()) {
    out += RenderAdvice(advice, markdown);
    out += "\n";
    for (const LevelCheckReport& report : advice.reports) {
      out += RenderLevelReport(report, plain);
    }
    out += RenderLevelReport(advice.snapshot_report, plain);
    out += "\n";
  }
  return out;
}

std::string GoldenPath(const std::string& name) {
  return std::string(SEMCOR_ADVICE_GOLDEN_DIR) + "/" + name + ".golden";
}

class AdviceGolden : public ::testing::TestWithParam<GoldenWorkload> {};

TEST_P(AdviceGolden, SweepRendersByteIdentically) {
  const GoldenWorkload& g = GetParam();
  const std::string actual = RenderSweep(g.make());
  const std::string path = GoldenPath(g.name);
  if (g_update_golden) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run advice_golden_test --update-golden)";
  std::stringstream expected;
  expected << in.rdbuf();
  // Report the first differing line rather than two multi-kB strings.
  std::istringstream want(expected.str()), got(actual);
  std::string want_line, got_line;
  for (int line = 1;; ++line) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) break;
    ASSERT_EQ(more_want, more_got) << path << ": length differs at line "
                                   << line;
    ASSERT_EQ(want_line, got_line) << path << ":" << line;
  }
  EXPECT_EQ(expected.str(), actual) << path;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, AdviceGolden, ::testing::ValuesIn(Workloads()),
    [](const ::testing::TestParamInfo<GoldenWorkload>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace semcor

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      semcor::g_update_golden = true;
    }
  }
  return RUN_ALL_TESTS();
}
