// Golden tests for pup_lint, the project's determinism/invariant
// analyzer. Each check gets a minimal fixture that must fire exactly
// once, suppressions (NOLINT / NOLINTNEXTLINE) must silence findings,
// clean files must exit 0, and — the self-check that keeps the tool
// honest — the shipped tree itself must be lint-clean.
//
// The binary path and source root are injected at compile time
// (PUP_LINT_BINARY, PUP_SOURCE_DIR) so the test runs the same artifact
// the `lint` target uses.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

/// A new directory under $TMPDIR (default /tmp), made by mkdtemp and
/// removed with its contents when this goes out of scope.
class TempDir {
 public:
  TempDir() {
    const char* base = std::getenv("TMPDIR");
    path_ = std::string(base ? base : "/tmp") + "/pup_lint_test_XXXXXX";
    made_ = ::mkdtemp(path_.data()) != nullptr;
    EXPECT_TRUE(made_) << "mkdtemp failed for " << path_;
  }
  ~TempDir() {
    std::error_code ec;
    if (made_) std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool made_ = false;
};

/// Runs pup_lint over `args`, capturing stdout+stderr and the exit code.
LintRun RunLint(const std::string& args) {
  const TempDir tmp;
  const std::string log = tmp.path() + "/out.txt";
  const std::string cmd =
      std::string(PUP_LINT_BINARY) + " " + args + " > " + log + " 2>&1";
  LintRun run;
  const int raw = std::system(cmd.c_str());
  run.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  std::ifstream in(log);
  std::ostringstream buf;
  buf << in.rdbuf();
  run.output = buf.str();
  return run;
}

/// Writes `content` to a fixture file in a new directory and lints just
/// that directory; returns the run.
LintRun LintFixture(const std::string& content, const char* extra = "") {
  const TempDir tmp;
  const std::string& dir = tmp.path();
  std::ofstream out(dir + "/fixture.cc");
  out << content;
  out.close();
  return RunLint(std::string(extra) + (*extra ? " " : "") + dir);
}

/// Writes a multi-file fixture tree (relative path -> content) under a
/// new temp dir and lints the whole dir — the shape the cross-file
/// checks (include graph, call graph, ckpt sites) need.
LintRun LintTree(
    const std::vector<std::pair<std::string, std::string>>& files,
    const char* extra = "") {
  const TempDir tmp;
  const std::string& dir = tmp.path();
  for (const auto& [rel, content] : files) {
    const size_t slash = rel.rfind('/');
    if (slash != std::string::npos) {
      const std::string cmd = "mkdir -p " + dir + "/" + rel.substr(0, slash);
      EXPECT_EQ(std::system(cmd.c_str()), 0);
    }
    std::ofstream out(dir + "/" + rel);
    out << content;
  }
  return RunLint(std::string(extra) + (*extra ? " " : "") + dir);
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Each check fires on its fixture
// ---------------------------------------------------------------------------

TEST(LintCheckTest, PupRandFiresOnStdRandomness) {
  LintRun run = LintFixture(
      "#include <random>\n"
      "int f() { std::mt19937 gen(42); return (int)gen(); }\n");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-rand]"), 1u) << run.output;
}

TEST(LintCheckTest, PupUnorderedIterFiresOnRangeForOverUnorderedMap) {
  LintRun run = LintFixture(
      "#include <unordered_map>\n"
      "int f(const std::unordered_map<int, int>& counts) {\n"
      "  int total = 0;\n"
      "  for (const auto& [k, v] : counts) total += v;\n"
      "  return total;\n"
      "}\n");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-unordered-iter]"), 1u)
      << run.output;
}

TEST(LintCheckTest, PupHotAllocFiresInsideMarkedFunctionOnly) {
  LintRun run = LintFixture(
      "#include <vector>\n"
      "void cold(std::vector<int>* v) { v->push_back(1); }\n"  // Unmarked: OK.
      "// PUP_HOT\n"
      "void hot(std::vector<int>* v) {\n"
      "  v->push_back(2);\n"   // Finding 1: container growth.
      "  int* p = new int(3);\n"  // Finding 2: raw allocation.
      "  delete p;\n"             // Finding 3: raw deallocation.
      "}\n"
      "void cold2(std::vector<int>* v) { v->resize(8); }\n");  // After the
                                                               // hot region.
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-hot-alloc]"), 3u)
      << run.output;
}

// pup::obs instrumentation is exempt inside PUP_HOT functions: the
// macros register once into function-local statics and then record via
// relaxed atomics, so neither the macro spelling nor a cached obs::
// handle may fire pup-hot-alloc — while real allocations on other lines
// of the same function must still be reported.
TEST(LintCheckTest, PupHotAllocExemptsObsInstrumentation) {
  LintRun run = LintFixture(
      "#include <vector>\n"
      "// PUP_HOT\n"
      "void hot(std::vector<int>* v) {\n"
      "  PUP_OBS_SCOPED_TIMER(\"train/batch_step\");\n"  // Exempt macro.
      // `new` would fire pup-hot-alloc; the obs:: handle exempts the line.
      "  auto* h = new pup::obs::Histogram(); (void)h;\n"
      // push_back would fire; caching an obs::Counter handle exempts it.
      "  handles.push_back(pup::obs::Counter());\n"
      "  v->push_back(2);\n"  // Still a finding: real container growth.
      "}\n");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-hot-alloc]"), 1u)
      << run.output;
}

// Inside a PUP_HOT region, *any* touch of a known unordered container —
// not just iteration — fires pup-hot-unordered: hash probing is
// data-dependent work the request/step loop must not do. Cold functions
// may use the same container freely, and the declaration line itself is
// not a finding.
TEST(LintCheckTest, PupHotUnorderedFiresOnHotAccessOnly) {
  LintRun run = LintFixture(
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> counts_;\n"
      "int cold(int u) { return counts_.find(u) != counts_.end(); }\n"
      "// PUP_HOT\n"
      "int hot(int u) {\n"
      "  auto it = counts_.find(u);\n"  // Finding: hot hash probe.
      "  return it == counts_.end() ? 0 : it->second;\n"  // Finding.
      "}\n");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-hot-unordered]"), 2u)
      << run.output;
}

TEST(LintCheckTest, PupNarrowingFiresOnUnsuffixedDoubleLiteral) {
  LintRun run = LintFixture(
      "float lr() { float rate = 0.01; return rate; }\n"   // Finding.
      "float ok() { float rate = 0.01f; return rate; }\n");  // Suffixed: OK.
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-narrowing]"), 1u)
      << run.output;
}

// Regression: a suffixed scientific literal (`-2.1e-4f`) must not fire.
// An earlier alternation order matched the bare `2.1` prefix first,
// leaving the exponent and `f` suffix outside the match — every suffixed
// constant in scientific notation was a false positive.
TEST(LintCheckTest, PupNarrowingAcceptsSuffixedScientificLiteral) {
  LintRun run = LintFixture(
      "float a() { float c = -2.12194440e-4f; return c; }\n"
      "float b() { float c = 1.5E+8F; return c; }\n"
      "float c() { float c = 8.3e10; return c; }\n");  // Unsuffixed: finding.
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-narrowing]"), 1u)
      << run.output;
}

TEST(LintCheckTest, PupSimdGatherFiresOnGatherScatterAnywhere) {
  // Gather/scatter intrinsics are banned even under la/simd/.
  const TempDir tmp;
  const std::string dir = tmp.path() + "/la/simd";
  EXPECT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  std::ofstream out(dir + "/fixture.cc");
  out << "void f(float* p, void* idx) {\n"
         "  auto v = _mm256_i32gather_ps(p, idx, 4);\n"  // Finding.
         "  (void)v;\n"
         "}\n";
  out.close();
  LintRun run = RunLint(dir);
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-simd-gather]"), 1u)
      << run.output;
}

TEST(LintCheckTest, PupSimdGatherFiresOnIntrinsicsOutsideBackend) {
  LintRun run = LintFixture(
      "#include <immintrin.h>\n"                      // Finding 1.
      "float f(const float* p) {\n"
      "  __m256 v = _mm256_loadu_ps(p);\n"            // Finding 2 (one per
      "  return _mm256_cvtss_f32(v);\n"               // line; finding 3).
      "}\n");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-simd-gather]"), 3u)
      << run.output;
}

TEST(LintCheckTest, PupSimdGatherAllowsPlainIntrinsicsInBackendDir) {
  const TempDir tmp;
  const std::string dir = tmp.path() + "/la/simd";
  EXPECT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  std::ofstream out(dir + "/fixture.cc");
  out << "#include <immintrin.h>\n"
         "float f(const float* p) {\n"
         "  __m256 v = _mm256_loadu_ps(p);\n"
         "  return _mm256_cvtss_f32(v);\n"
         "}\n";
  out.close();
  LintRun run = RunLint(dir);
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintCheckTest, PupStatusValueFiresOnUncheckedValue) {
  LintRun run = LintFixture(
      "#include <optional>\n"
      "int f(const std::optional<int>& maybe) { return maybe.value(); }\n");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-status-value]"), 1u)
      << run.output;
}

TEST(LintCheckTest, PupStatusValueAcceptsNearbyOkEvidence) {
  LintRun run = LintFixture(
      "#include <optional>\n"
      "int f(const std::optional<int>& maybe) {\n"
      "  if (!maybe.has_value()) return -1;\n"
      "  return maybe.value();\n"
      "}\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintCheckTest, PupParallelGrainFiresOnBareLiteralGrain) {
  LintRun run = LintFixture(
      "void ParallelFor(unsigned long, unsigned long, unsigned long,\n"
      "                 void (*)(unsigned long));\n"
      "void body(unsigned long);\n"
      "void f() { ParallelFor(0, 100, 64, body); }\n"  // Bare 64: finding.
      "void g() {\n"
      "  constexpr unsigned long kGrain = 64;\n"
      "  ParallelFor(0, 100, kGrain, body);\n"  // Named: OK.
      "}\n");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-parallel-grain]"), 1u)
      << run.output;
}

// ---------------------------------------------------------------------------
// Suppression and output contract
// ---------------------------------------------------------------------------

TEST(LintSuppressionTest, SameLineNolintSilencesTheNamedCheck) {
  LintRun run = LintFixture(
      "#include <random>\n"
      "int f() {\n"
      "  std::mt19937 gen(42);  // NOLINT(pup-rand) — fixture needs it.\n"
      "  return (int)gen();\n"
      "}\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintSuppressionTest, NolintNextLineSilencesTheFollowingLine) {
  LintRun run = LintFixture(
      "float lr() {\n"
      "  // NOLINTNEXTLINE(pup-narrowing) — double precision intended.\n"
      "  float rate = 0.01;\n"
      "  return rate;\n"
      "}\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintSuppressionTest, NolintForADifferentCheckDoesNotSilence) {
  LintRun run = LintFixture(
      "float lr() {\n"
      "  float rate = 0.01;  // NOLINT(pup-rand) — wrong check id.\n"
      "  return rate;\n"
      "}\n");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-narrowing]"), 1u)
      << run.output;
}

TEST(LintOutputTest, CleanFileExitsZeroAndReportsClean) {
  LintRun run = LintFixture(
      "int add(int a, int b) { return a + b; }\n");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("pup_lint: clean"), std::string::npos)
      << run.output;
}

TEST(LintOutputTest, FindingsAreFileLineCheckIdFormatted) {
  LintRun run = LintFixture(
      "float lr() { float rate = 0.01; return rate; }\n");
  EXPECT_EQ(run.exit_code, 1);
  // file:line: [check-id] message
  EXPECT_NE(run.output.find("fixture.cc:1: [pup-narrowing]"),
            std::string::npos)
      << run.output;
}

TEST(LintOutputTest, FixSuggestionsModeAddsHints) {
  LintRun run = LintFixture(
      "float lr() { float rate = 0.01; return rate; }\n",
      "--fix-suggestions");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("fix suggestions:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("f-suffixed literal"), std::string::npos)
      << run.output;
}

TEST(LintOutputTest, CommentsAndStringsDoNotTriggerChecks) {
  LintRun run = LintFixture(
      "// std::mt19937 in a comment is fine\n"
      "/* float rate = 0.01; also fine */\n"
      "const char* doc() { return \"rand() and maybe.value()\"; }\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintOutputTest, UsageErrorExitsTwo) {
  LintRun run = RunLint("");
  EXPECT_EQ(run.exit_code, 2);
}

// ---------------------------------------------------------------------------
// Lexer regressions: digit separators, UDLs, raw-string delimiters
// ---------------------------------------------------------------------------

// 1'000'000 must not open a char literal — if it did, everything up to
// the next apostrophe would be blanked and the mt19937 below would be
// invisible to pup-rand.
TEST(LintLexerTest, DigitSeparatorsAreNotCharLiterals) {
  LintRun run = LintFixture(
      "#include <random>\n"
      "const long grain = 1'000'000;\n"
      "const long hexsep = 0xFF'FF;\n"
      "int f() { std::mt19937 gen(42); return (int)gen(); }\n");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-rand]"), 1u) << run.output;
}

// A user-defined literal suffix is not a narrowing double: 0.5_w is
// whatever its literal operator says it is.
TEST(LintLexerTest, UserDefinedLiteralSuffixIsNotNarrowing) {
  LintRun run = LintFixture(
      "float f() {\n"
      "  float w = 0.5_w;\n"
      "  return w;\n"
      "}\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// A delimited raw string whose contents contain )" must not terminate
// early: the tail would otherwise leak back into the code view (hiding
// the real code after it, or faking findings from prose).
TEST(LintLexerTest, RawStringDelimiterWithParensInContents) {
  LintRun run = LintFixture(
      "#include <random>\n"
      "const char* kDoc = R\"x(rand() and a )\" inside)x\";\n"
      "int f() { std::mt19937 gen(42); return (int)gen(); }\n");
  EXPECT_EQ(run.exit_code, 1);
  // The rand() inside the raw string is prose; the mt19937 after is code.
  EXPECT_EQ(CountOccurrences(run.output, "[pup-rand]"), 1u) << run.output;
}

// Encoding-prefixed raw strings (u8R, LR, ...) take the raw-string path,
// not the ordinary-string path.
TEST(LintLexerTest, EncodingPrefixedRawString) {
  LintRun run = LintFixture(
      "const char8_t* kA = u8R\"(std::mt19937 inside(1))\";\n"
      "const wchar_t* kB = LR\"(float x = 0.01;)\";\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// Cross-file: pup-hot-transitive
// ---------------------------------------------------------------------------

namespace fixtures {

// A hot function in one file reaching an allocating definition in
// another through a header declaration — the decl/def split the index
// must bridge.
const std::pair<std::string, std::string> kGrowH = {
    "src/la/grow.h", "#pragma once\nnamespace pup { void Grow(); }\n"};
const std::pair<std::string, std::string> kGrowCc = {
    "src/la/grow.cc",
    "#include \"la/grow.h\"\n"
    "#include <vector>\n"
    "namespace pup {\n"
    "std::vector<int> g;\n"
    "void Grow() { g.push_back(1); }\n"
    "}\n"};
const std::pair<std::string, std::string> kHotCaller = {
    "src/train/hot_step.cc",
    "#include \"la/grow.h\"\n"
    "namespace pup {\n"
    "// PUP_HOT\n"
    "void Step() { Grow(); }\n"
    "}\n"};

}  // namespace fixtures

TEST(LintCrossFileTest, HotTransitiveFiresAcrossFiles) {
  LintRun run = LintTree(
      {fixtures::kGrowH, fixtures::kGrowCc, fixtures::kHotCaller});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-hot-transitive]"), 1u)
      << run.output;
  // The message names the hot root, the sink, and the path between them.
  EXPECT_NE(run.output.find("'Step'"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("'Grow'"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("Step -> Grow"), std::string::npos)
      << run.output;
}

TEST(LintCrossFileTest, HotTransitiveCalleeSideNolintSuppresses) {
  auto grow_cc = fixtures::kGrowCc;
  grow_cc.second =
      "#include \"la/grow.h\"\n"
      "#include <vector>\n"
      "namespace pup {\n"
      "std::vector<int> g;\n"
      "void Grow() { g.push_back(1); }  "
      "// NOLINT(pup-hot-transitive): fixture.\n"
      "}\n";
  LintRun run =
      LintTree({fixtures::kGrowH, grow_cc, fixtures::kHotCaller});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintCrossFileTest, HotTransitiveWrongIdNolintDoesNotSuppress) {
  auto grow_cc = fixtures::kGrowCc;
  grow_cc.second =
      "#include \"la/grow.h\"\n"
      "#include <vector>\n"
      "namespace pup {\n"
      "std::vector<int> g;\n"
      "void Grow() { g.push_back(1); }  // NOLINT(pup-rand): wrong id.\n"
      "}\n";
  LintRun run =
      LintTree({fixtures::kGrowH, grow_cc, fixtures::kHotCaller});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-hot-transitive]"), 1u)
      << run.output;
}

TEST(LintCrossFileTest, HotTransitiveReportsDirectLocksInHotBody) {
  LintRun run = LintFixture(
      "#include <mutex>\n"
      "std::mutex mu;\n"
      "// PUP_HOT\n"
      "int locked() { std::lock_guard<std::mutex> lock(mu); return 1; }\n");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-hot-transitive]"), 1u)
      << run.output;
}

// A file-scope NOLINTFILE opts a whole file out as a fact source — the
// thread-pool runtime pattern.
TEST(LintCrossFileTest, NolintFileExemptsWholeFileAsFactSource) {
  auto grow_cc = fixtures::kGrowCc;
  grow_cc.second =
      "// NOLINTFILE(pup-hot-transitive): fixture runtime file.\n" +
      fixtures::kGrowCc.second;
  LintRun run =
      LintTree({fixtures::kGrowH, grow_cc, fixtures::kHotCaller});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// Cross-file: pup-layering
// ---------------------------------------------------------------------------

TEST(LintCrossFileTest, LayeringRejectsLowLayerIncludingHigh) {
  LintRun run = LintTree({
      {"src/serve/index.h", "#pragma once\n"},
      {"src/la/matrix_ext.h", "#pragma once\n#include \"serve/index.h\"\n"},
  });
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-layering]"), 1u)
      << run.output;
  // The message names both layers and their ranks.
  EXPECT_NE(run.output.find("'la'"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("'serve'"), std::string::npos) << run.output;
}

TEST(LintCrossFileTest, LayeringDeniedEdgeServeToTrain) {
  LintRun run = LintTree({
      {"src/train/trainer_ext.h", "#pragma once\n"},
      {"src/serve/backdoor.h",
       "#pragma once\n#include \"train/trainer_ext.h\"\n"},
  });
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-layering]"), 1u)
      << run.output;
  EXPECT_NE(run.output.find("explicitly denied"), std::string::npos)
      << run.output;
}

TEST(LintCrossFileTest, LayeringAllowsDownwardIncludes) {
  LintRun run = LintTree({
      {"src/la/matrix_ext.h", "#pragma once\n"},
      {"src/serve/scorer.h", "#pragma once\n#include \"la/matrix_ext.h\"\n"},
      {"src/common/util_ext.h", "#pragma once\n"},
      {"src/la/uses_common.h",
       "#pragma once\n#include \"common/util_ext.h\"\n"},
  });
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintCrossFileTest, LayeringNolintOnIncludeLineSuppresses) {
  LintRun run = LintTree({
      {"src/serve/index.h", "#pragma once\n"},
      {"src/la/matrix_ext.h",
       "#pragma once\n"
       "#include \"serve/index.h\"  // NOLINT(pup-layering): fixture.\n"},
  });
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// Cross-file: pup-status-discard
// ---------------------------------------------------------------------------

TEST(LintCrossFileTest, StatusDiscardFiresOnDroppedResultAcrossFiles) {
  LintRun run = LintTree({
      {"src/ckpt/io_ext.h", "#pragma once\nnamespace pup { Status Flush(); }\n"},
      {"src/ckpt/use.cc",
       "#include \"ckpt/io_ext.h\"\n"
       "namespace pup {\n"
       "void Shutdown() { Flush(); }\n"
       "}\n"},
  });
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-status-discard]"), 1u)
      << run.output;
  EXPECT_NE(run.output.find("'Flush'"), std::string::npos) << run.output;
}

TEST(LintCrossFileTest, StatusDiscardIgnoresConsumedResults) {
  LintRun run = LintTree({
      {"src/ckpt/io_ext.h", "#pragma once\nnamespace pup { Status Flush(); }\n"},
      {"src/ckpt/use.cc",
       "#include \"ckpt/io_ext.h\"\n"
       "namespace pup {\n"
       "Status Shutdown() {\n"
       "  Status s = Flush();\n"   // Bound: fine.
       "  if (!Flush().ok()) return s;\n"  // Member chain: fine.
       "  return Flush();\n"       // Returned: fine.
       "}\n"
       "}\n"},
  });
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintCrossFileTest, StatusDiscardIgnoresNonStatusReturnTypes) {
  LintRun run = LintTree({
      {"src/ckpt/io_ext.h",
       "#pragma once\nnamespace pup { StatusCode Code(); int Count(); }\n"},
      {"src/ckpt/use.cc",
       "#include \"ckpt/io_ext.h\"\n"
       "namespace pup {\n"
       "void Shutdown() { Code(); Count(); }\n"
       "}\n"},
  });
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintCrossFileTest, StatusDiscardNolintSuppresses) {
  LintRun run = LintTree({
      {"src/ckpt/io_ext.h", "#pragma once\nnamespace pup { Status Flush(); }\n"},
      {"src/ckpt/use.cc",
       "#include \"ckpt/io_ext.h\"\n"
       "namespace pup {\n"
       "void Shutdown() { Flush(); }  "
       "// NOLINT(pup-status-discard): best-effort on teardown.\n"
       "}\n"},
  });
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// Cross-file: pup-ckpt-section-drift
// ---------------------------------------------------------------------------

TEST(LintCrossFileTest, CkptSectionDriftFiresOnMismatchedNames) {
  LintRun run = LintTree({
      {"src/ckpt/rw.cc",
       "namespace pup {\n"
       "void Save(Writer& w, const Matrix& m) {\n"
       "  w.AddMatrix(\"model/emb\", m);\n"     // Written, never read.
       "}\n"
       "void Load(Reader& r) {\n"
       "  Matrix m = r.GetMatrix(\"model/embed\");\n"  // Read, never written.
       "}\n"
       "}\n"},
  });
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-ckpt-section-drift]"), 2u)
      << run.output;
  EXPECT_NE(run.output.find("written but never read"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("read but never written"), std::string::npos)
      << run.output;
}

// Section names shared through a kSec* constant resolve on both sides —
// the remediation the check's message recommends must itself lint clean,
// including across files.
TEST(LintCrossFileTest, CkptSectionDriftResolvesSharedConstants) {
  LintRun run = LintTree({
      {"src/ckpt/sections.h",
       "#pragma once\n"
       "namespace pup { constexpr char kSecEmb[] = \"model/emb\"; }\n"},
      {"src/ckpt/save.cc",
       "#include \"ckpt/sections.h\"\n"
       "namespace pup {\n"
       "void Save(Writer& w, const Matrix& m) { w.AddMatrix(kSecEmb, m); }\n"
       "}\n"},
      {"src/ckpt/load.cc",
       "#include \"ckpt/sections.h\"\n"
       "namespace pup {\n"
       "void Load(Reader& r) { Matrix m = r.GetMatrix(kSecEmb); }\n"
       "}\n"},
  });
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintCrossFileTest, CkptSectionDriftNolintSuppresses) {
  LintRun run = LintTree({
      {"src/ckpt/rw.cc",
       "namespace pup {\n"
       "void Load(Reader& r) {\n"
       "  // NOLINTNEXTLINE(pup-ckpt-section-drift): v1-format fallback.\n"
       "  Matrix m = r.GetMatrix(\"legacy/emb\");\n"
       "}\n"
       "}\n"},
  });
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// Check filtering and SARIF output
// ---------------------------------------------------------------------------

TEST(LintDriverTest, ChecksFilterLimitsTheRun) {
  // Fixture violates both pup-narrowing and pup-rand; the filter keeps
  // only the latter.
  LintRun run = LintFixture(
      "#include <random>\n"
      "float lr() { float rate = 0.01; return rate; }\n"
      "int f() { std::mt19937 gen(42); return (int)gen(); }\n",
      "--checks=pup-rand");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[pup-rand]"), 1u) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[pup-narrowing]"), 0u)
      << run.output;
}

TEST(LintDriverTest, UnknownCheckIdExitsTwo) {
  LintRun run = LintFixture("int x;\n", "--checks=pup-bogus");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("unknown check id"), std::string::npos)
      << run.output;
}

TEST(LintDriverTest, SarifOutputHasSchemaShape) {
  LintRun run = LintFixture(
      "float lr() { float rate = 0.01; return rate; }\n",
      "--format=sarif");
  EXPECT_EQ(run.exit_code, 1);
  // Document header.
  EXPECT_NE(run.output.find("\"version\": \"2.1.0\""), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("sarif-2.1.0.json"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"name\": \"pup_lint\""), std::string::npos)
      << run.output;
  // Every catalogued check appears as a rule.
  EXPECT_NE(run.output.find("\"id\": \"pup-layering\""), std::string::npos)
      << run.output;
  // The finding appears as a result with a location.
  EXPECT_NE(run.output.find("\"ruleId\": \"pup-narrowing\""),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"startLine\": 1"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("pup_lint: FAILED"), std::string::npos)
      << "sarif mode must not mix in the text report: " << run.output;
}

TEST(LintDriverTest, SarifCleanRunHasEmptyResults) {
  LintRun run = LintFixture("int add(int a, int b) { return a + b; }\n",
                            "--format=sarif");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("\"results\": [\n      ]"), std::string::npos)
      << run.output;
}

// ---------------------------------------------------------------------------
// Self-check: the shipped tree is lint-clean
// ---------------------------------------------------------------------------

TEST(LintSelfCheckTest, ShippedTreeIsLintClean) {
  const std::string root(PUP_SOURCE_DIR);
  LintRun run = RunLint(root + "/src " + root + "/bench " + root +
                        "/examples " + root + "/tools");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("pup_lint: clean"), std::string::npos)
      << run.output;
}

}  // namespace
