// Unit tests for src/common: Status/Result, Rng, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/flags.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/table.h"

namespace pup {
namespace {

// --------------------------- Status / Result ---------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IOError("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, ValueOrPassesThrough) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r.ValueOr("fallback"), "hello");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  PUP_ASSIGN_OR_RETURN(int h, Half(x));
  *out = h;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  Status s = UseHalf(7, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// --------------------------------- Rng ---------------------------------

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (uint64_t n : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBelow(n), n);
    }
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(5.0, 0.5);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(23);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) counts[rng.NextWeighted(w)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ShuffleEmptyAndSingle) {
  Rng rng(31);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  rng.Shuffle(&one);
  EXPECT_EQ(one[0], 42);
}

TEST(RngTest, ForkStreamsAreIndependent) {
  Rng parent(37);
  Rng child = parent.Fork();
  // The child stream must not replay the parent stream.
  Rng parent_copy(37);
  parent_copy.Fork();
  EXPECT_EQ(parent.NextU64(), parent_copy.NextU64());
  uint64_t c = child.NextU64();
  uint64_t p = parent.NextU64();
  EXPECT_NE(c, p);
}

TEST(RngTest, LogNormalPositive) {
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.NextLogNormal(0.0, 1.0), 0.0);
  }
}

TEST(ZipfWeightsTest, DecreasingAndPositive) {
  auto w = ZipfWeights(10, 0.8);
  ASSERT_EQ(w.size(), 10u);
  for (size_t i = 1; i < w.size(); ++i) {
    EXPECT_GT(w[i], 0.0);
    EXPECT_LT(w[i], w[i - 1]);
  }
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(ZipfWeightsTest, AlphaZeroIsUniform) {
  auto w = ZipfWeights(5, 0.0);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

// -------------------------------- Table --------------------------------

TEST(TextTableTest, AlignsColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "23"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // Header and two rows plus separator: 4 lines.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(TextTableTest, SeparatorAddsLine) {
  TextTable t({"a"});
  t.AddRow({"1"});
  t.AddSeparator();
  t.AddRow({"2"});
  std::string s = t.ToString();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 5);
}

TEST(FormatTest, FormatFixed) {
  EXPECT_EQ(FormatFixed(0.16213, 4), "0.1621");
  EXPECT_EQ(FormatFixed(1.0, 2), "1.00");
  EXPECT_EQ(FormatFixed(-0.5, 1), "-0.5");
}

TEST(FormatTest, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.0512), "+5.12%");
  EXPECT_EQ(FormatPercent(-0.01, 1), "-1.0%");
}

TEST(RenderTest, BarChartScalesToMax) {
  std::string s = RenderBarChart({{"a", 1.0}, {"b", 2.0}}, 10);
  // "b" has the longest bar (10 hashes).
  EXPECT_NE(s.find("##########"), std::string::npos);
}

TEST(RenderTest, HistogramCountsAllValues) {
  std::vector<double> values = {0.0, 0.1, 0.5, 0.9, 1.0};
  std::string s = RenderHistogram(values, 2, 10);
  EXPECT_FALSE(s.empty());
  // Two bins rendered.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2);
}

TEST(RenderTest, HeatmapShapes) {
  std::vector<double> cells = {0, 1, 2, 3, 4, 5};
  std::string s = RenderHeatmap(cells, 2, 3);
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2);
  // Max cell renders as '@'.
  EXPECT_NE(s.find('@'), std::string::npos);
}

// ------------------------------- Logging -------------------------------

TEST(LoggingTest, LevelRoundTrips) {
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(original);
}

TEST(LoggingTest, SuppressedLevelsDoNotCrash) {
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kOff);
  PUP_LOG_DEBUG << "hidden " << 42;
  PUP_LOG_ERROR << "also hidden";
  SetLogLevel(original);
}

// ------------------------------ Stopwatch ------------------------------

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  double t0 = sw.Seconds();
  EXPECT_GE(t0, 0.0);
  // Burn a little CPU.
  volatile double acc = 0.0;
  for (int i = 0; i < 2000000; ++i) acc = acc + i * 0.5;
  double t1 = sw.Seconds();
  EXPECT_GE(t1, t0);
  EXPECT_NEAR(sw.Millis(), sw.Seconds() * 1000.0, 50.0);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch sw;
  volatile double acc = 0.0;
  for (int i = 0; i < 2000000; ++i) acc = acc + i * 0.5;
  double before = sw.Seconds();
  sw.Restart();
  EXPECT_LE(sw.Seconds(), before + 1e-3);
}

// -------------------------------- Flags --------------------------------

Flags ParseArgs(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f = ParseArgs({"--name=value", "--n=42"});
  EXPECT_EQ(f.GetString("name", ""), "value");
  EXPECT_EQ(f.GetInt("n", 0), 42);
}

TEST(FlagsTest, SpaceSyntax) {
  Flags f = ParseArgs({"--rate", "0.5", "--label", "x"});
  EXPECT_DOUBLE_EQ(f.GetDouble("rate", 0.0), 0.5);
  EXPECT_EQ(f.GetString("label", ""), "x");
}

TEST(FlagsTest, BareBooleanFlag) {
  // Positionals (e.g. the subcommand) come before flags; a flag followed
  // by a non-flag token consumes it as its value.
  Flags f = ParseArgs({"cmd", "--verbose", "--quiet"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_TRUE(f.GetBool("quiet", false));
  EXPECT_FALSE(f.GetBool("missing", false));
  EXPECT_EQ(f.positional(), std::vector<std::string>{"cmd"});
}

TEST(FlagsTest, BoolFalseValues) {
  Flags f = ParseArgs({"--a=false", "--b=0", "--c=yes"});
  EXPECT_FALSE(f.GetBool("a", true));
  EXPECT_FALSE(f.GetBool("b", true));
  EXPECT_TRUE(f.GetBool("c", false));
}

TEST(FlagsTest, Defaults) {
  Flags f = ParseArgs({});
  EXPECT_EQ(f.GetString("missing", "dft"), "dft");
  EXPECT_EQ(f.GetInt("missing", -5), -5);
  EXPECT_FALSE(f.Has("missing"));
}

TEST(FlagsTest, PositionalOrderPreserved) {
  Flags f = ParseArgs({"one", "--k=v", "two"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "one");
  EXPECT_EQ(f.positional()[1], "two");
}

TEST(FlagsTest, UnusedFlagsDetected) {
  Flags f = ParseArgs({"--used=1", "--typo=2"});
  EXPECT_EQ(f.GetInt("used", 0), 1);
  auto unused = f.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagsTest, NonNegativeIntFlagReadsWholeValuesAndFallsBack) {
  Flags f = ParseArgs({"--n=42", "--zero", "0", "--big=4294967295"});
  EXPECT_EQ(NonNegativeIntFlag<int>(f, "n").value(), 42);
  EXPECT_EQ(NonNegativeIntFlag<size_t>(f, "zero", size_t{7}).value(), 0u);
  EXPECT_EQ(NonNegativeIntFlag<uint32_t>(f, "big").value(), 4294967295u);
  // Absent: the fallback, 0 unless given.
  EXPECT_EQ(NonNegativeIntFlag<int>(f, "missing").value(), 0);
  EXPECT_EQ(NonNegativeIntFlag<uint64_t>(f, "missing", uint64_t{100}).value(),
            100u);
  // Every flag was queried, so none reads as a typo.
  EXPECT_TRUE(f.UnusedFlags().empty());
}

TEST(FlagsTest, NonNegativeIntFlagRejectsMalformedValues) {
  Flags f = ParseArgs({"--neg=-1", "--word=abc", "--tail=12x", "--empty=",
                       "--bare", "--frac=1.5", "--wide=4294967296",
                       "--space= 3"});
  for (const char* name :
       {"neg", "word", "tail", "empty", "bare", "frac", "wide", "space"}) {
    Result<uint32_t> u = NonNegativeIntFlag<uint32_t>(f, name, 5u);
    ASSERT_FALSE(u.ok()) << name;
    EXPECT_EQ(u.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(u.status().message().find(std::string("--") + name),
              std::string::npos)
        << u.status().ToString();
  }
  // A signed type rejects a negative value by sign, not by parse.
  EXPECT_FALSE(NonNegativeIntFlag<int64_t>(f, "neg").ok());
  EXPECT_EQ(NonNegativeIntFlag<int64_t>(f, "wide").value(), 4294967296);
}

// --threads is checked by the parser alone, before any pool is sized, so
// no value here starts a thread.
TEST(FlagsTest, ThreadsFlagIsStrictAndCapped) {
  EXPECT_EQ(ThreadsFlag(ParseArgs({})).value(), 0);  // All cores.
  EXPECT_EQ(ThreadsFlag(ParseArgs({"--threads=0"})).value(), 0);
  EXPECT_EQ(ThreadsFlag(ParseArgs({"--threads", "4"})).value(), 4);
  EXPECT_EQ(ThreadsFlag(ParseArgs({"--threads=1024"})).value(),
            kMaxThreadsFlag);
  for (const char* bad : {"--threads=1025", "--threads=2147483648",
                          "--threads=abc", "--threads=-1", "--threads=2x",
                          "--threads"}) {
    Result<int> threads = ThreadsFlag(ParseArgs({bad}));
    ASSERT_FALSE(threads.ok()) << bad;
    EXPECT_EQ(threads.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(threads.status().message().find("--threads"),
              std::string::npos)
        << threads.status().ToString();
  }
}

// Without --threads the pool keeps its default size, so no thread starts.
TEST(FlagsTest, SimdFlagRejectsUnknownBackendWithStatus) {
  const simd::Isa before = simd::ActiveIsa();
  const Status st = ApplyRuntimeFlags(ParseArgs({"--simd", "avx512"}));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("avx512"), std::string::npos);
  EXPECT_EQ(simd::ActiveIsa(), before);
}

// A bad --threads fails in the parser, and the --simd after it is not
// applied.
TEST(FlagsTest, RuntimeFlagsStopAtTheFirstBadFlag) {
  const simd::Isa before = simd::ActiveIsa();
  const char* other = before == simd::Isa::kOff ? "auto" : "off";
  const Status st =
      ApplyRuntimeFlags(ParseArgs({"--threads", "abc", "--simd", other}));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("--threads"), std::string::npos);
  EXPECT_EQ(simd::ActiveIsa(), before);
}

}  // namespace
}  // namespace pup
