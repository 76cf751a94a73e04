#include <gtest/gtest.h>

#include <vector>

#include "common/cli.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/tuple.h"
#include "common/value.h"
#include "txn/isolation.h"

namespace semcor {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  Status s = Status::NotFound("thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: thing");
}

TEST(StatusTest, TransactionFailureClassification) {
  EXPECT_TRUE(Status::Aborted("").IsTransactionFailure());
  EXPECT_TRUE(Status::Deadlock("").IsTransactionFailure());
  EXPECT_TRUE(Status::Conflict("").IsTransactionFailure());
  EXPECT_FALSE(Status::WouldBlock("").IsTransactionFailure());
  EXPECT_FALSE(Status::NotFound("").IsTransactionFailure());
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err = Status::Internal("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), Code::kInternal);
}

TEST(StrUtilTest, StrCatJoinSplit) {
  EXPECT_EQ(StrCat("a", 1, "-", 2.5), "a1-2.5");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_TRUE(Split("", ',').empty());
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StrUtilTest, ItemNames) {
  EXPECT_EQ(ItemName("acct", 3, "bal"), "acct[3].bal");
  EXPECT_EQ(ItemName("cust", 7), "cust[7]");
}

TEST(ValueTest, TypesAndEquality) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Str("x").AsString(), "x");
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Int(2));
  EXPECT_NE(Value::Int(1), Value::Str("1"));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Str("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Value::Null().ToString(), "null");
}

TEST(TupleTest, ToString) {
  Tuple t = {{"a", Value::Int(1)}, {"b", Value::Str("x")}};
  EXPECT_EQ(TupleToString(t), "{a: 1, b: \"x\"}");
}

TEST(RngTest, DeterministicAndInRange) {
  Rng a(7), b(7);
  for (int i = 0; i < 50; ++i) {
    const int64_t va = a.Uniform(-3, 9);
    EXPECT_EQ(va, b.Uniform(-3, 9));
    EXPECT_GE(va, -3);
    EXPECT_LE(va, 9);
  }
}

TEST(IsolationTest, PolicyTable) {
  // The locking disciplines of [2], level by level.
  LevelPolicy ru = PolicyFor(IsoLevel::kReadUncommitted);
  EXPECT_FALSE(ru.read_locks);
  EXPECT_FALSE(ru.snapshot_reads);

  LevelPolicy rc = PolicyFor(IsoLevel::kReadCommitted);
  EXPECT_TRUE(rc.read_locks);
  EXPECT_FALSE(rc.long_read_locks);
  EXPECT_FALSE(rc.fcw_validation);

  LevelPolicy fcw = PolicyFor(IsoLevel::kReadCommittedFcw);
  EXPECT_TRUE(fcw.read_locks);
  EXPECT_TRUE(fcw.fcw_validation);
  EXPECT_FALSE(fcw.long_read_locks);

  LevelPolicy rr = PolicyFor(IsoLevel::kRepeatableRead);
  EXPECT_TRUE(rr.long_read_locks);
  EXPECT_FALSE(rr.select_predicate_locks);

  LevelPolicy ser = PolicyFor(IsoLevel::kSerializable);
  EXPECT_TRUE(ser.long_read_locks);
  EXPECT_TRUE(ser.select_predicate_locks);

  LevelPolicy snap = PolicyFor(IsoLevel::kSnapshot);
  EXPECT_TRUE(snap.snapshot_reads);
  EXPECT_TRUE(snap.deferred_writes);
  EXPECT_TRUE(snap.fcw_validation);
  EXPECT_FALSE(snap.read_locks);
}

TEST(IsolationTest, LevelNames) {
  EXPECT_STREQ(IsoLevelName(IsoLevel::kReadCommittedFcw),
               "READ-COMMITTED-FCW");
  EXPECT_STREQ(IsoLevelName(IsoLevel::kSnapshot), "SNAPSHOT");
}

TEST(IsolationTest, ParseIsoLevel) {
  IsoLevel level;
  ASSERT_TRUE(ParseIsoLevel("ru", &level));
  EXPECT_EQ(level, IsoLevel::kReadUncommitted);
  ASSERT_TRUE(ParseIsoLevel("read_committed", &level));
  EXPECT_EQ(level, IsoLevel::kReadCommitted);
  ASSERT_TRUE(ParseIsoLevel("rc_fcw", &level));
  EXPECT_EQ(level, IsoLevel::kReadCommittedFcw);
  ASSERT_TRUE(ParseIsoLevel("rr", &level));
  EXPECT_EQ(level, IsoLevel::kRepeatableRead);
  ASSERT_TRUE(ParseIsoLevel("ser", &level));
  EXPECT_EQ(level, IsoLevel::kSerializable);
  ASSERT_TRUE(ParseIsoLevel("si", &level));
  EXPECT_EQ(level, IsoLevel::kSnapshot);
  EXPECT_FALSE(ParseIsoLevel("read-committed", &level));
  EXPECT_FALSE(ParseIsoLevel("", &level));
}

TEST(IsolationTest, IsoLevelFromIndex) {
  IsoLevel level;
  for (int i = 0; i < kIsoLevelCount; ++i) {
    ASSERT_TRUE(IsoLevelFromIndex(i, &level)) << i;
    EXPECT_EQ(static_cast<int>(level), i);
  }
  EXPECT_FALSE(IsoLevelFromIndex(-1, &level));
  EXPECT_FALSE(IsoLevelFromIndex(kIsoLevelCount, &level));
  EXPECT_FALSE(IsoLevelFromIndex(255, &level));
}

TEST(StrUtilTest, JsonEscape) {
  // Plain text passes through untouched, including non-ASCII bytes (JSON is
  // UTF-8; only the structural and control characters need escaping).
  EXPECT_EQ(JsonEscape("plain text"), "plain text");
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape("\b\f"), "\\b\\f");
  // Remaining C0 control characters become \u00XX escapes.
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(JsonEscape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(StrUtilTest, JsonQuote) {
  EXPECT_EQ(JsonQuote("x"), "\"x\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote(""), "\"\"");
}

TEST(CliTest, ParsesEveryKind) {
  std::string s = "default";
  int i = 1;
  int64_t i64 = 2;
  uint64_t u64 = 3;
  bool flag = false;
  bool negated = true;
  cli::Flags flags("prog", "test");
  flags.Str("str", &s, "");
  flags.Int("int", &i, "");
  flags.I64("i64", &i64, "");
  flags.U64("u64", &u64, "");
  flags.Bool("flag", &flag, "");
  flags.Bool("negated", &negated, "");
  const char* argv[] = {"prog",       "--str=hello", "--int=-7",
                        "--i64=-900", "--u64=18",    "--flag",
                        "--negated=false"};
  ASSERT_TRUE(flags.Parse(7, const_cast<char**>(argv)));
  EXPECT_FALSE(flags.help_requested());
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(i, -7);
  EXPECT_EQ(i64, -900);
  EXPECT_EQ(u64, 18u);
  EXPECT_TRUE(flag);
  EXPECT_FALSE(negated);
}

TEST(CliTest, DurationSuffixes) {
  // The grammar itself: suffixed values scale to microseconds, bare numbers
  // are milliseconds (the common case for timeout flags).
  uint64_t us = 0;
  EXPECT_TRUE(cli::ParseDurationUs("250ms", &us));
  EXPECT_EQ(us, 250'000u);
  EXPECT_TRUE(cli::ParseDurationUs("2s", &us));
  EXPECT_EQ(us, 2'000'000u);
  EXPECT_TRUE(cli::ParseDurationUs("1500us", &us));
  EXPECT_EQ(us, 1500u);
  EXPECT_TRUE(cli::ParseDurationUs("40", &us));  // bare = ms
  EXPECT_EQ(us, 40'000u);
  EXPECT_TRUE(cli::ParseDurationUs("0", &us));
  EXPECT_EQ(us, 0u);

  EXPECT_FALSE(cli::ParseDurationUs("", &us));
  EXPECT_FALSE(cli::ParseDurationUs("-5ms", &us));
  EXPECT_FALSE(cli::ParseDurationUs("5m", &us));    // minutes unsupported
  EXPECT_FALSE(cli::ParseDurationUs("ms", &us));    // no digits
  EXPECT_FALSE(cli::ParseDurationUs("5 ms", &us));  // embedded space
  EXPECT_FALSE(cli::ParseDurationUs("5msx", &us));  // trailing junk
  // 2^64 us overflows when scaled from seconds.
  EXPECT_FALSE(cli::ParseDurationUs("18446744073709551615s", &us));

  // Round-trip formatting picks the largest exact unit.
  EXPECT_EQ(cli::FormatDurationUs(2'000'000), "2s");
  EXPECT_EQ(cli::FormatDurationUs(250'000), "250ms");
  EXPECT_EQ(cli::FormatDurationUs(1500), "1500us");
  EXPECT_EQ(cli::FormatDurationUs(0), "0ms");

  // And through the Flags parser, as the timeout flags use it.
  uint64_t stmt = 0, txn = 5'000'000, idle = 0;
  cli::Flags flags("prog", "test");
  flags.DurationUs("stmt-timeout", &stmt, "");
  flags.DurationUs("txn-timeout", &txn, "");
  flags.DurationUs("idle-timeout", &idle, "");
  const char* argv[] = {"prog", "--stmt-timeout=50ms", "--txn-timeout=2s",
                        "--idle-timeout=30"};
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(stmt, 50'000u);
  EXPECT_EQ(txn, 2'000'000u);
  EXPECT_EQ(idle, 30'000u);

  cli::Flags bad("prog", "test");
  bad.DurationUs("stmt-timeout", &stmt, "");
  const char* bad_argv[] = {"prog", "--stmt-timeout=fast"};
  EXPECT_FALSE(bad.Parse(2, const_cast<char**>(bad_argv)));
}

TEST(CliTest, RejectsBadInput) {
  int i = 0;
  bool b = false;
  {
    cli::Flags flags("prog", "test");
    flags.Int("n", &i, "");
    const char* argv[] = {"prog", "--unknown=1"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
  }
  {
    cli::Flags flags("prog", "test");
    flags.Int("n", &i, "");
    const char* argv[] = {"prog", "--n=12x"};  // trailing junk in a number
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
  }
  {
    cli::Flags flags("prog", "test");
    flags.Int("n", &i, "");
    const char* argv[] = {"prog", "--n"};  // non-bool flag without a value
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
  }
  {
    cli::Flags flags("prog", "test");
    flags.Bool("b", &b, "");
    const char* argv[] = {"prog", "--b=maybe"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
  }
  {
    cli::Flags flags("prog", "test");
    flags.Int("n", &i, "");
    const char* argv[] = {"prog", "stray"};  // positional argument
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
  }
  {
    uint64_t u = 0;
    cli::Flags flags("prog", "test");
    flags.U64("u", &u, "");
    const char* argv[] = {"prog", "--u=-1"};  // negative into unsigned
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
  }
  {
    // Past int's range: an error, not a silent wrap (4294967298 would
    // otherwise become 2).
    cli::Flags flags("prog", "test");
    flags.Int("n", &i, "");
    const char* argv[] = {"prog", "--n=4294967298"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
  }
}

TEST(CliTest, HelpStopsParsingWithoutFailing) {
  int i = 0;
  cli::Flags flags("prog", "test");
  flags.Int("n", &i, "");
  const char* argv[] = {"prog", "--help", "--garbage"};
  EXPECT_TRUE(flags.Parse(3, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.help_requested());
  EXPECT_EQ(i, 0);  // nothing after --help is applied
}

TEST(CliTest, VersionStopsParsingWithoutFailing) {
  int i = 0;
  cli::Flags flags("prog", "test");
  flags.Int("n", &i, "");
  const char* argv[] = {"prog", "--version", "--garbage"};
  EXPECT_TRUE(flags.Parse(3, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.version_requested());
  EXPECT_FALSE(flags.help_requested());
  EXPECT_EQ(i, 0);  // nothing after --version is applied
}

TEST(CliTest, RepeatedFlagsTakeLastValue) {
  // Last-wins lets wrapper scripts append overrides to a base command line
  // without stripping its earlier values.
  int i = 0;
  std::string s;
  cli::Flags flags("prog", "test");
  flags.Int("n", &i, "");
  flags.Str("s", &s, "");
  const char* argv[] = {"prog", "--n=4", "--s=a", "--n=8", "--n=15", "--s=b"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(i, 15);
  EXPECT_EQ(s, "b");
  EXPECT_EQ(flags.Occurrences("n"), 3);
  EXPECT_EQ(flags.Occurrences("s"), 2);
  EXPECT_EQ(flags.Occurrences("never-given"), 0);
}

TEST(CliTest, RepeatedBoolAndMalformedRepeatStillFail) {
  bool b = false;
  cli::Flags flags("prog", "test");
  flags.Bool("b", &b, "");
  {
    // Bare then explicit-false: the later occurrence wins.
    const char* argv[] = {"prog", "--b", "--b=false"};
    ASSERT_TRUE(flags.Parse(3, const_cast<char**>(argv)));
    EXPECT_FALSE(b);
    EXPECT_EQ(flags.Occurrences("b"), 2);
  }
  {
    // A malformed later occurrence is still an error, not silently ignored.
    cli::Flags again("prog", "test");
    again.Bool("b", &b, "");
    const char* argv[] = {"prog", "--b=true", "--b=maybe"};
    EXPECT_FALSE(again.Parse(3, const_cast<char**>(argv)));
  }
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (int64_t v = 0; v < 64; ++v) h.Record(v);
  EXPECT_EQ(h.Count(), 64u);
  EXPECT_EQ(h.Max(), 63);
  // Below 64 the buckets are exact, so percentiles are exact order stats.
  EXPECT_EQ(h.Percentile(50), 31);
  EXPECT_EQ(h.Percentile(100), 63);
}

TEST(HistogramTest, PercentilesWithinRelativeErrorBound) {
  Histogram h;
  for (int64_t v = 1; v <= 100000; ++v) h.Record(v);
  EXPECT_EQ(h.Count(), 100000u);
  // Upper-bound reporting with ~3% bucket width: p must sit in [exact,
  // exact * 1.04).
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double exact = p / 100.0 * 100000.0;
    const int64_t got = h.Percentile(p);
    EXPECT_GE(static_cast<double>(got), exact - 1) << p;
    EXPECT_LE(static_cast<double>(got), exact * 1.04 + 1) << p;
  }
  EXPECT_GE(h.Percentile(100), 100000);
}

TEST(HistogramTest, MergeAndEmptyBehaviour) {
  Histogram empty;
  EXPECT_EQ(empty.Percentile(99), 0);
  EXPECT_EQ(empty.Count(), 0u);
  EXPECT_EQ(empty.Mean(), 0.0);

  Histogram a;
  Histogram b;
  for (int i = 0; i < 500; ++i) a.Record(100);
  for (int i = 0; i < 500; ++i) b.Record(10000);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 1000u);
  EXPECT_EQ(a.Max(), 10000);
  // Half the mass at 100, half at 10000: p50 is the low mode, p99 the high.
  EXPECT_LE(a.Percentile(50), 104);
  EXPECT_GE(a.Percentile(99), 10000 * 97 / 100);
  EXPECT_NEAR(a.Mean(), 5050.0, 1.0);

  // Merging is lossless: a sample split across four histograms and merged
  // answers every percentile exactly as one histogram of the whole sample.
  Histogram whole;
  std::vector<Histogram> parts(4);
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const int64_t v = rng.Uniform(0, 1) == 0 ? rng.Uniform(0, 200)
                                             : rng.Uniform(1000, 5000000);
    whole.Record(v);
    parts[static_cast<size_t>(i) % parts.size()].Record(v);
  }
  Histogram merged;
  for (const Histogram& part : parts) merged.Merge(part);
  EXPECT_EQ(merged.Count(), whole.Count());
  EXPECT_EQ(merged.Max(), whole.Max());
  for (double p : {0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(merged.Percentile(p), whole.Percentile(p)) << p;
  }
}

}  // namespace
}  // namespace semcor
