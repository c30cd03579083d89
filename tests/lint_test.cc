// Unit tests for the isum_lint rule engine (tools/lint). These drive
// LintFile over in-memory snippets; the whole-tree scan itself runs as the
// separate `isum_lint_src` ctest entry.

#include <gtest/gtest.h>

#include <algorithm>

#include "tools/lint/lint.h"

namespace isum::lint {
namespace {

std::vector<Violation> Lint(const std::string& path,
                            const std::string& content,
                            const StatusApi& api = {}) {
  std::vector<Violation> out;
  LintFile(path, content, api, &out);
  return out;
}

bool HasRule(const std::vector<Violation>& vs, const std::string& rule) {
  return std::any_of(vs.begin(), vs.end(),
                     [&](const Violation& v) { return v.rule == rule; });
}

// ---------------------------------------------------------------- lexer

TEST(LintLexer, TokenKindsAndPositions) {
  const LexedSource src = Lex("int a = 42;\nf(a, \"str\", 'c');\n");
  ASSERT_GE(src.tokens.size(), 5u);
  EXPECT_EQ(src.tokens[0].kind, Token::Kind::kIdent);
  EXPECT_EQ(src.tokens[0].text, "int");
  EXPECT_EQ(src.tokens[0].line, 1);
  EXPECT_EQ(src.tokens[0].col, 1);
  EXPECT_EQ(src.tokens[2].kind, Token::Kind::kPunct);
  EXPECT_EQ(src.tokens[2].text, "=");
  EXPECT_EQ(src.tokens[3].kind, Token::Kind::kNumber);
  EXPECT_EQ(src.tokens[3].text, "42");
  EXPECT_EQ(src.tokens[3].col, 9);
  // Second line: string and char literals become opaque tokens.
  const auto str = std::find_if(
      src.tokens.begin(), src.tokens.end(),
      [](const Token& t) { return t.kind == Token::Kind::kString; });
  ASSERT_NE(str, src.tokens.end());
  EXPECT_EQ(str->line, 2);
  EXPECT_EQ(str->text, "<string>");
  const auto chr = std::find_if(
      src.tokens.begin(), src.tokens.end(),
      [](const Token& t) { return t.kind == Token::Kind::kChar; });
  ASSERT_NE(chr, src.tokens.end());
}

TEST(LintLexer, ScopeResolutionIsOneToken) {
  const LexedSource src = Lex("std::mutex m;");
  ASSERT_EQ(src.tokens.size(), 5u);  // std :: mutex m ;
  EXPECT_EQ(src.tokens[1].text, "::");
  EXPECT_EQ(src.tokens[1].kind, Token::Kind::kPunct);
}

TEST(LintLexer, PreprocessorDirectiveHeads) {
  const LexedSource src = Lex("#ifndef FOO_H_\n#define FOO_H_\nint x;\n");
  ASSERT_GE(src.tokens.size(), 4u);
  EXPECT_EQ(src.tokens[0].kind, Token::Kind::kPreproc);
  EXPECT_EQ(src.tokens[0].text, "#ifndef");
  EXPECT_EQ(src.tokens[1].text, "FOO_H_");
  EXPECT_EQ(src.tokens[2].text, "#define");
}

TEST(LintLexer, MultiLineBlockCommentProducesNoTokens) {
  const LexedSource src = Lex("a /* b\nassert(x);\nprintf(y); */ c\n");
  ASSERT_EQ(src.tokens.size(), 2u);
  EXPECT_EQ(src.tokens[0].text, "a");
  EXPECT_EQ(src.tokens[1].text, "c");
  EXPECT_EQ(src.tokens[1].line, 3);  // line tracking survives the comment
}

TEST(LintLexer, RawStringSpansLinesAsOneToken) {
  const LexedSource src =
      Lex("auto s = R\"sql(\nSELECT rand()\n)sql\";\nint z;\n");
  const auto str = std::find_if(
      src.tokens.begin(), src.tokens.end(),
      [](const Token& t) { return t.kind == Token::Kind::kString; });
  ASSERT_NE(str, src.tokens.end());
  // Nothing inside the raw string leaks out as identifiers.
  for (const Token& t : src.tokens) {
    EXPECT_NE(t.text, "SELECT");
    EXPECT_NE(t.text, "rand");
  }
  // Tokens after the raw string land on the right line.
  EXPECT_EQ(src.tokens.back().text, ";");
  EXPECT_EQ(src.tokens[src.tokens.size() - 2].text, "z");
  EXPECT_EQ(src.tokens[src.tokens.size() - 2].line, 4);
}

TEST(LintLexer, NolintHarvestedFromCommentsOnly) {
  const LexedSource src = Lex(
      "abort();  // NOLINT(isum-no-assert)\n"
      "const char* s = \"NOLINT\";\n"
      "// NOLINTNEXTLINE\n");
  ASSERT_EQ(src.nolint.size(), 1u);
  EXPECT_EQ(src.nolint.begin()->first, 1);
  EXPECT_FALSE(src.nolint.begin()->second.blanket);
  ASSERT_EQ(src.nolint.begin()->second.rules.size(), 1u);
  EXPECT_EQ(src.nolint.begin()->second.rules[0], "isum-no-assert");
  // The string-literal "NOLINT" on line 2 is data, not a directive.
  EXPECT_EQ(src.nolint.count(2), 0u);
  // NOLINTNEXTLINE registers in its own map, not as a same-line NOLINT.
  ASSERT_EQ(src.nolint_next.size(), 1u);
  EXPECT_EQ(src.nolint_next.begin()->first, 3);
  EXPECT_TRUE(src.nolint_next.begin()->second.blanket);
}

TEST(LintLexer, NolintInsideBlockCommentAttachesToItsLine) {
  const LexedSource src = Lex(
      "/* explanation\n"
      "   NOLINT(isum-no-stdio)\n"
      "   more text */\n");
  ASSERT_EQ(src.nolint.size(), 1u);
  EXPECT_EQ(src.nolint.begin()->first, 2);
}

// ------------------------------------------------------- existing rules

TEST(LintNoAssert, FlagsAssertAndAbortButNotStaticAssert) {
  const auto vs = Lint("src/x.cc",
                       "void F() {\n"
                       "  assert(x > 0);\n"
                       "  abort();\n"
                       "  static_assert(sizeof(int) == 4);\n"
                       "}\n");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].rule, "isum-no-assert");
  EXPECT_EQ(vs[0].line, 2);
  EXPECT_EQ(vs[1].line, 3);
}

TEST(LintNoAssert, IgnoresCommentsAndStrings) {
  const auto vs = Lint("src/x.cc",
                       "// use assert(x) here\n"
                       "const char* s = \"abort()\";\n");
  EXPECT_TRUE(vs.empty());
}

TEST(LintNoAssert, IgnoresMultiLineCommentsAndRawStrings) {
  // Regression: the line-oriented engine saw the middle of multi-line
  // block comments and raw strings as code.
  EXPECT_TRUE(Lint("src/x.cc",
                   "/* start of a long comment\n"
                   "   abort();\n"
                   "   assert(x);\n"
                   "   end */\n")
                  .empty());
  EXPECT_TRUE(Lint("src/x.cc",
                   "const char* q = R\"(\n"
                   "  abort();\n"
                   ")\";\n")
                  .empty());
}

TEST(LintNoAssert, NolintInsideStringDoesNotSuppress) {
  // Regression: a "NOLINT" inside a string literal on the same line used to
  // suppress real findings.
  const auto vs = Lint("src/x.cc",
                       "log(\"see NOLINT docs\"); abort();\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "isum-no-assert");
}

TEST(LintNoStdio, FlagsPrintfFamilyAndStreams) {
  const auto vs = Lint("src/x.cc",
                       "void F() {\n"
                       "  printf(\"hi\");\n"
                       "  std::fprintf(stderr, \"x\");\n"
                       "  std::cout << 1;\n"
                       "  std::cerr << 2;\n"
                       "}\n");
  EXPECT_EQ(vs.size(), 4u);
  EXPECT_TRUE(HasRule(vs, "isum-no-stdio"));
}

TEST(LintNoStdio, AllowsSnprintfFormatting) {
  const auto vs = Lint("src/x.cc",
                       "int n = std::snprintf(buf, sizeof(buf), \"%d\", 7);\n"
                       "int m = std::vsnprintf(out.data(), n, fmt, args);\n");
  EXPECT_TRUE(vs.empty());
}

TEST(LintNoStdio, ToolsBenchAndTestsMayUseStdio) {
  const std::string snippet = "int main() { printf(\"ok\\n\"); }\n";
  EXPECT_FALSE(HasRule(Lint("tools/tracecat/main.cc", snippet),
                       "isum-no-stdio"));
  EXPECT_FALSE(HasRule(Lint("bench/bench_compress.cc", snippet),
                       "isum-no-stdio"));
  EXPECT_FALSE(HasRule(Lint("tests/foo_test.cc", snippet), "isum-no-stdio"));
}

TEST(LintNondeterminism, FlagsRandFamilyOutsideRng) {
  const auto vs = Lint("src/core/x.cc",
                       "int a = rand();\n"
                       "std::random_device rd;\n");
  EXPECT_EQ(vs.size(), 2u);
  EXPECT_TRUE(HasRule(vs, "isum-no-nondeterminism"));
}

TEST(LintNondeterminism, ExemptsRngImplementation) {
  const auto vs = Lint("src/common/rng.cc", "int a = rand();\n");
  EXPECT_TRUE(vs.empty());
}

TEST(LintNondeterminism, AppliesToBenchButNotTests) {
  const std::string snippet = "int a = rand();\n";
  EXPECT_TRUE(HasRule(Lint("bench/bench_compress.cc", snippet),
                      "isum-no-nondeterminism"));
  EXPECT_FALSE(HasRule(Lint("tests/foo_test.cc", snippet),
                       "isum-no-nondeterminism"));
}

TEST(LintNondeterminism, FlagsClockReadsOnlyInCore) {
  const std::string snippet =
      "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(HasRule(Lint("src/core/isum.cc", snippet),
                      "isum-no-nondeterminism"));
  // Outside core the nondeterminism rule stays quiet; the raw-clock rule
  // (tested below) takes over.
  EXPECT_FALSE(HasRule(Lint("src/engine/what_if.cc", snippet),
                       "isum-no-nondeterminism"));
}

TEST(LintNoRawClock, FlagsDirectClockReadsInLibraryCode) {
  for (const char* clock :
       {"steady_clock", "system_clock", "high_resolution_clock"}) {
    const auto vs =
        Lint("src/engine/what_if.cc",
             "auto t = std::chrono::" + std::string(clock) + "::now();\n");
    EXPECT_TRUE(HasRule(vs, "isum-no-raw-clock")) << clock;
  }
}

TEST(LintNoRawClock, FlagsRawSleeps) {
  const auto vs =
      Lint("src/advisor/advisor.cc",
           "std::this_thread::sleep_for(std::chrono::seconds(1));\n"
           "std::this_thread::sleep_until(when);\n");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].rule, "isum-no-raw-clock");
  EXPECT_NE(vs[0].message.find("SleepForNanos"), std::string::npos);
  EXPECT_EQ(vs[1].line, 2);
}

TEST(LintNoRawClock, ExemptsTheClockImplementationAndTracer) {
  const std::string snippet =
      "auto t = std::chrono::steady_clock::now();\n"
      "std::this_thread::sleep_for(d);\n";
  EXPECT_FALSE(
      HasRule(Lint("src/common/deadline.cc", snippet), "isum-no-raw-clock"));
  EXPECT_FALSE(
      HasRule(Lint("src/obs/trace.cc", snippet), "isum-no-raw-clock"));
  // Non-src trees (bench drivers, tests) are out of scope for this rule.
  EXPECT_FALSE(
      HasRule(Lint("bench/bench_util.h", snippet), "isum-no-raw-clock"));
}

TEST(LintNoRawClock, MentionOfClockWithoutNowIsFine) {
  // Naming the type (e.g. in a using-declaration) without reading it is
  // allowed; only ::now() reads are flagged.
  EXPECT_FALSE(HasRule(
      Lint("src/engine/what_if.cc",
           "using clock_t2 = std::chrono::steady_clock;\n"),
      "isum-no-raw-clock"));
}

TEST(LintNoRawClock, HonorsNolint) {
  EXPECT_FALSE(HasRule(
      Lint("src/engine/what_if.cc",
           "auto t = std::chrono::steady_clock::now();"
           "  // NOLINT(isum-no-raw-clock)\n"),
      "isum-no-raw-clock"));
  EXPECT_FALSE(HasRule(
      Lint("src/engine/what_if.cc",
           "// NOLINTNEXTLINE(isum-no-raw-clock)\n"
           "std::this_thread::sleep_for(d);\n"),
      "isum-no-raw-clock"));
}

TEST(LintIncludeGuard, AcceptsCanonicalGuard) {
  const auto vs = Lint("src/catalog/catalog.h",
                       "#ifndef ISUM_CATALOG_CATALOG_H_\n"
                       "#define ISUM_CATALOG_CATALOG_H_\n"
                       "#endif  // ISUM_CATALOG_CATALOG_H_\n");
  EXPECT_TRUE(vs.empty());
}

TEST(LintIncludeGuard, FlagsWrongOrMissingGuard) {
  EXPECT_TRUE(HasRule(Lint("src/catalog/catalog.h",
                           "#ifndef CATALOG_H\n#define CATALOG_H\n#endif\n"),
                      "isum-include-guard"));
  EXPECT_TRUE(HasRule(Lint("src/catalog/catalog.h", "int x;\n"),
                      "isum-include-guard"));
  // Tools keep their tools/ prefix.
  EXPECT_TRUE(Lint("tools/lint/lint.h",
                   "#ifndef ISUM_TOOLS_LINT_LINT_H_\n"
                   "#define ISUM_TOOLS_LINT_LINT_H_\n"
                   "#endif\n")
                  .empty());
  // bench/ and tests/ headers keep their whole repo-relative path.
  EXPECT_TRUE(Lint("bench/bench_util.h",
                   "#ifndef ISUM_BENCH_BENCH_UTIL_H_\n"
                   "#define ISUM_BENCH_BENCH_UTIL_H_\n"
                   "#endif\n")
                  .empty());
}

TEST(LintIncludeGuard, WrongGuardCarriesARenameFix) {
  const auto vs = Lint("src/catalog/catalog.h",
                       "#ifndef CATALOG_H\n#define CATALOG_H\n#endif\n");
  ASSERT_EQ(vs.size(), 1u);
  ASSERT_EQ(vs[0].fixes.size(), 2u);  // #ifndef and #define both renamed
  EXPECT_EQ(vs[0].fixes[0].replacement, "ISUM_CATALOG_CATALOG_H_");
  EXPECT_EQ(vs[0].fixes[0].line, 1);
  EXPECT_EQ(vs[0].fixes[1].line, 2);
  // A missing guard has no mechanical fix.
  const auto missing = Lint("src/catalog/catalog.h", "int x;\n");
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_TRUE(missing[0].fixes.empty());
}

TEST(LintStatus, CollectsStatusReturningNames) {
  StatusApi api;
  CollectStatusApi(
      "Status Open(const std::string& path);\n"
      "StatusOr<Table*> CreateTable(const std::string& name);\n"
      "StatusOr<std::vector<int>> Parse(const std::string& sql);\n"
      "void NotCollected();\n",
      &api);
  const auto& names = api.function_names;
  EXPECT_NE(std::find(names.begin(), names.end(), "Open"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "CreateTable"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Parse"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "NotCollected"),
            names.end());
}

TEST(LintStatus, CollectsWrappedDeclarations) {
  StatusApi api;
  CollectStatusApi(
      "StatusOr<std::vector<int>>\n"
      "Parse(const std::string& sql);\n"
      "Status\n"
      "Open(const std::string& path);\n"
      "StatusOr<std::map<std::string,\n"
      "                  int>>\n"
      "CountRows(const Table& t);\n",
      &api);
  const auto& names = api.function_names;
  EXPECT_NE(std::find(names.begin(), names.end(), "Parse"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Open"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "CountRows"), names.end());
}

TEST(LintStatus, FlagsVoidLaunderedStatusCalls) {
  StatusApi api;
  api.function_names = {"AddColumn"};
  const auto vs = Lint("src/x.cc",
                       "void F() {\n"
                       "  (void)table->AddColumn(c);\n"
                       "  (void)Unrelated(c);\n"
                       "}\n",
                       api);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "isum-unchecked-status");
  EXPECT_EQ(vs[0].line, 2);
}

TEST(LintStatus, RequiresNodiscardOnStatusClasses) {
  const std::string guard_ok =
      "#ifndef ISUM_COMMON_STATUS_H_\n#define ISUM_COMMON_STATUS_H_\n";
  EXPECT_TRUE(HasRule(Lint("src/common/status.h",
                           guard_ok + "class Status {\n};\n#endif\n"),
                      "isum-unchecked-status"));
  EXPECT_TRUE(Lint("src/common/status.h",
                   guard_ok +
                       "class [[nodiscard]] Status {\n};\n"
                       "template <typename T>\n"
                       "class [[nodiscard]] StatusOr {\n};\n#endif\n")
                  .empty());
}

TEST(LintNolint, SameLineAndNextLineSuppression) {
  EXPECT_TRUE(Lint("src/x.cc", "abort();  // NOLINT(isum-no-assert)\n")
                  .empty());
  EXPECT_TRUE(Lint("src/x.cc",
                   "// NOLINTNEXTLINE(isum-no-assert)\n"
                   "abort();\n")
                  .empty());
  // Blanket NOLINT suppresses every rule on the line.
  EXPECT_TRUE(Lint("src/x.cc", "abort();  // NOLINT\n").empty());
  // A NOLINT for a different rule does not suppress.
  EXPECT_FALSE(Lint("src/x.cc", "abort();  // NOLINT(isum-no-stdio)\n")
                   .empty());
}

TEST(LintOutput, ViolationFormatsAsFileLineCol) {
  const auto vs = Lint("src/x.cc", "abort();\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].ToString(), "src/x.cc:1:1: [isum-no-assert] "
                              "library code must not call abort() directly; "
                              "use ISUM_CHECK or return a Status");
}

TEST(LintRules, KnownRulesListsAllTwelveRules) {
  const auto rules = KnownRules();
  EXPECT_EQ(rules.size(), 12u);
  for (const char* r :
       {"isum-no-assert", "isum-no-stdio", "isum-no-nondeterminism",
        "isum-include-guard", "isum-unchecked-status", "isum-no-raw-clock",
        "isum-no-perpair-alloc", "isum-budget-poll", "isum-lock-scope",
        "isum-guarded-by", "isum-journal-schema",
        "isum-no-alloc-in-signal"}) {
    EXPECT_NE(std::find(rules.begin(), rules.end(), r), rules.end()) << r;
  }
}

TEST(LintJournalSchema, FlagsAdHocJsonEmissionInLibraryCode) {
  const auto vs = Lint(
      "src/core/greedy.cc",
      "void F() { Log(\"{\\\"event\\\": \\\"pick\\\", \\\"q\\\": 3}\"); }\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "isum-journal-schema");
}

TEST(LintJournalSchema, FlagsRawStringJsonObjects) {
  const auto vs = Lint("src/advisor/enumerator.cc",
                       "const char* kJson = R\"({\"round\": 1})\";\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "isum-journal-schema");
}

TEST(LintJournalSchema, AllowsTheObsEmittersThemselves) {
  EXPECT_TRUE(Lint("src/obs/journal.cc",
                   "out += \"{\\\"event\\\": \\\"select\\\"}\";\n")
                  .empty());
}

TEST(LintJournalSchema, AllowsPlainBracesAndNonJsonStrings) {
  // A lone "{" (say, for code generation) is not a JSON object literal.
  EXPECT_TRUE(Lint("src/core/isum.cc", "out += \"{\";\n").empty());
  EXPECT_TRUE(
      Lint("src/core/isum.cc", "Log(\"selected {} queries\");\n").empty());
}

TEST(LintJournalSchema, NolintNextlineSuppresses) {
  EXPECT_TRUE(
      Lint("src/workload/query_store.cc",
           "// NOLINTNEXTLINE(isum-journal-schema)\n"
           "out += StrFormat(\"{\\\"sql\\\": \\\"%s\\\"}\", s.c_str());\n")
          .empty());
}

TEST(LintPerPairAlloc, FlagsVectorInsideHotPathLoop) {
  const auto vs = Lint("src/core/greedy.cc",
                       "void F(size_t n) {\n"
                       "  for (size_t i = 0; i < n; ++i) {\n"
                       "    std::vector<double> sims(n);\n"
                       "  }\n"
                       "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "isum-no-perpair-alloc");
  EXPECT_EQ(vs[0].line, 3);
}

TEST(LintPerPairAlloc, AllowsVectorOutsideLoopsAndOutsideHotPath) {
  // Hoisted before the loop: fine.
  EXPECT_TRUE(Lint("src/core/greedy.cc",
                   "void F(size_t n) {\n"
                   "  std::vector<double> sims(n);\n"
                   "  for (size_t i = 0; i < n; ++i) {\n"
                   "    sims[i] = 0.0;\n"
                   "  }\n"
                   "}\n")
                  .empty());
  // Same pattern in a non-hot-path file: not this rule's business.
  EXPECT_TRUE(Lint("src/eval/metrics.cc",
                   "void F(size_t n) {\n"
                   "  for (size_t i = 0; i < n; ++i) {\n"
                   "    std::vector<double> sims(n);\n"
                   "  }\n"
                   "}\n")
                  .empty());
}

TEST(LintPerPairAlloc, TracksWhileLoopsAndWrappedHeaders) {
  const auto vs = Lint("src/core/incremental.cc",
                       "void F(size_t n) {\n"
                       "  while (n > 0)\n"
                       "  {\n"
                       "    std::vector<int> ids;\n"
                       "  }\n"
                       "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 4);
  // Unbraced single-statement loop body, then an unrelated block: the block
  // must not be mistaken for the loop body.
  EXPECT_TRUE(Lint("src/core/incremental.cc",
                   "void F(size_t n) {\n"
                   "  for (size_t i = 0; i < n; ++i) Touch(i);\n"
                   "  {\n"
                   "    std::vector<int> ids;\n"
                   "  }\n"
                   "}\n")
                  .empty());
}

TEST(LintPerPairAlloc, HonorsNolint) {
  EXPECT_TRUE(
      Lint("src/baselines/kmedoid.cc",
           "void F(size_t n) {\n"
           "  for (size_t i = 0; i < n; ++i) {\n"
           "    std::vector<int> ids;  // NOLINT(isum-no-perpair-alloc)\n"
           "  }\n"
           "}\n")
          .empty());
}

// ------------------------------------------------------ flow-aware rules

TEST(LintBudgetPoll, FlagsCostingLoopWithoutPoll) {
  const auto vs = Lint("src/core/greedy.cc",
                       "void F(Workload& w) {\n"
                       "  for (size_t i = 0; i < w.size(); ++i) {\n"
                       "    total += optimizer.TryCost(w.query(i), conf);\n"
                       "  }\n"
                       "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "isum-budget-poll");
  EXPECT_EQ(vs[0].line, 2);  // reported at the loop header
  EXPECT_NE(vs[0].message.find("TryCost"), std::string::npos);
}

TEST(LintBudgetPoll, PollingOrThreadingTheBudgetIsClean) {
  // Explicit poll in the loop body.
  EXPECT_TRUE(Lint("src/core/greedy.cc",
                   "void F(Workload& w, const TimeBudget& budget) {\n"
                   "  for (size_t i = 0; i < w.size(); ++i) {\n"
                   "    if (!budget.CheckCancelled().ok()) break;\n"
                   "    total += optimizer.TryCost(w.query(i), conf);\n"
                   "  }\n"
                   "}\n")
                  .empty());
  // Budget threaded into the costing call itself.
  EXPECT_TRUE(Lint("src/advisor/enumerator.cc",
                   "void F(Workload& w, const TimeBudget& round_budget) {\n"
                   "  while (More()) {\n"
                   "    total += optimizer.TryCost(q, conf, round_budget);\n"
                   "  }\n"
                   "}\n")
                  .empty());
}

TEST(LintBudgetPoll, OnlyCoreAndAdvisorAreInScope) {
  const std::string snippet =
      "void F() {\n"
      "  for (int i = 0; i < 9; ++i) {\n"
      "    total += optimizer.TryCost(q, conf);\n"
      "  }\n"
      "}\n";
  EXPECT_FALSE(HasRule(Lint("src/eval/pipeline.cc", snippet),
                       "isum-budget-poll"));
  EXPECT_FALSE(HasRule(Lint("tests/foo_test.cc", snippet),
                       "isum-budget-poll"));
  EXPECT_TRUE(HasRule(Lint("src/advisor/enumerator.cc", snippet),
                      "isum-budget-poll"));
}

TEST(LintBudgetPoll, InnerPollSatisfiesEveryEnclosingLoop) {
  // A poll anywhere inside the loop body (here: in the inner loop) counts
  // for every enclosing loop — per-iteration polling is the documented
  // pattern.
  EXPECT_TRUE(Lint("src/core/greedy.cc",
                   "void F(const TimeBudget& budget) {\n"
                   "  while (round < max_rounds) {\n"
                   "    for (size_t i = 0; i < n; ++i) {\n"
                   "      if (!budget.CheckCancelled().ok()) break;\n"
                   "      total += optimizer.TryCost(q[i], conf);\n"
                   "    }\n"
                   "  }\n"
                   "}\n")
                  .empty());
  // Conversely: an outer-loop poll that happens before the costing loop is
  // even entered does not license a poll-free inner costing loop.
  EXPECT_TRUE(HasRule(Lint("src/core/greedy.cc",
                           "void F(const TimeBudget& budget) {\n"
                           "  while (round < max_rounds) {\n"
                           "    if (!budget.CheckCancelled().ok()) break;\n"
                           "    for (size_t i = 0; i < n; ++i) {\n"
                           "      total += optimizer.TryCost(q[i], conf);\n"
                           "    }\n"
                           "  }\n"
                           "}\n"),
                      "isum-budget-poll"));
}

TEST(LintBudgetPoll, HonorsNolintOnLoopHeader) {
  EXPECT_TRUE(Lint("src/core/greedy.cc",
                   "void F() {\n"
                   "  // NOLINTNEXTLINE(isum-budget-poll)\n"
                   "  for (size_t i = 0; i < n; ++i) {\n"
                   "    total += optimizer.TryCost(q, conf);\n"
                   "  }\n"
                   "}\n")
                  .empty());
}

TEST(LintLockScope, FlagsExpensiveCallsUnderALock) {
  const auto vs = Lint("src/engine/what_if.cc",
                       "void F() {\n"
                       "  MutexLock lock(shard.mutex);\n"
                       "  double c = optimizer_->Optimize(q, conf);\n"
                       "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "isum-lock-scope");
  EXPECT_EQ(vs[0].line, 3);
}

TEST(LintLockScope, LockScopeEndsAtItsBrace) {
  EXPECT_TRUE(Lint("src/engine/what_if.cc",
                   "void F() {\n"
                   "  {\n"
                   "    std::lock_guard<std::mutex> lock(mu);  "
                   "// NOLINT(isum-guarded-by)\n"
                   "    cache[key] = value;\n"
                   "  }\n"
                   "  double c = optimizer_->Optimize(q, conf);\n"
                   "}\n")
                  .empty());
}

TEST(LintLockScope, AppliesOutsideSrcToo) {
  EXPECT_TRUE(HasRule(Lint("tests/pool_test.cc",
                           "void F() {\n"
                           "  std::scoped_lock lock(mu);\n"
                           "  pool.ParallelFor(0, n, fn);\n"
                           "}\n"),
                      "isum-lock-scope"));
  // The annotated shims themselves are exempt.
  EXPECT_FALSE(HasRule(Lint("src/common/mutex.h",
                            "void F() {\n"
                            "  MutexLock lock(mu);\n"
                            "  SleepForNanos(1);\n"
                            "}\n"),
                       "isum-lock-scope"));
}

TEST(LintGuardedBy, FlagsStdMutexInLibraryCodeWithFix) {
  const auto vs = Lint("src/engine/cache.h",
                       "#ifndef ISUM_ENGINE_CACHE_H_\n"
                       "#define ISUM_ENGINE_CACHE_H_\n"
                       "class C {\n"
                       "  std::mutex mu_;\n"
                       "};\n"
                       "#endif  // ISUM_ENGINE_CACHE_H_\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "isum-guarded-by");
  EXPECT_EQ(vs[0].line, 4);
  ASSERT_EQ(vs[0].fixes.size(), 1u);
  EXPECT_EQ(vs[0].fixes[0].replacement, "isum::Mutex");
}

TEST(LintGuardedBy, FlagsCondVarAndExemptsShimAndNonSrc) {
  EXPECT_TRUE(HasRule(Lint("src/common/thread_pool.h",
                           "std::condition_variable work_available_;\n"),
                      "isum-guarded-by"));
  // The shim wraps the std types by design.
  EXPECT_FALSE(HasRule(Lint("src/common/mutex.h", "std::mutex raw_;\n"),
                       "isum-guarded-by"));
  // Tests and tools may use raw std::mutex.
  EXPECT_FALSE(HasRule(Lint("tests/foo_test.cc", "std::mutex mu;\n"),
                       "isum-guarded-by"));
}

TEST(LintGuardedBy, TemplateArgumentsAndIncludesAreNotDeclarations) {
  EXPECT_TRUE(Lint("src/engine/x.cc",
                   "#include <mutex>\n"
                   "void F() {\n"
                   "  std::unique_lock<std::mutex> lk(mu, std::defer_lock);\n"
                   "}\n")
                  .empty());
}

TEST(LintNoAllocInSignal, FlagsAllocationLockingAndStdioInAnnotatedBody) {
  const auto vs =
      Lint("src/obs/handler.cc",
           "ISUM_SIGNAL_SAFE void Handler(int sig) {\n"
           "  char* p = new char[64];\n"
           "  void* q = malloc(64);\n"
           "  MutexLock lock(mu_);\n"
           "  fprintf(stderr, \"tick\\n\");\n"
           "}\n");
  EXPECT_EQ(std::count_if(vs.begin(), vs.end(),
                          [](const Violation& v) {
                            return v.rule == "isum-no-alloc-in-signal";
                          }),
            4);
}

TEST(LintNoAllocInSignal, ScopeEndsAtTheBodyBrace) {
  // The same operations right after the annotated body are legal.
  const auto vs = Lint("src/obs/handler.cc",
                       "ISUM_SIGNAL_SAFE void Handler(int sig) {\n"
                       "  if (armed) {\n"
                       "    counter.fetch_add(1);\n"
                       "  }\n"
                       "}\n"
                       "void Setup() {\n"
                       "  buffer = new char[1 << 20];\n"
                       "}\n");
  EXPECT_FALSE(HasRule(vs, "isum-no-alloc-in-signal"));
}

TEST(LintNoAllocInSignal, AnnotatedDeclarationDoesNotArm) {
  // A declaration ends at ';' — the next function body is unannotated.
  EXPECT_FALSE(HasRule(Lint("src/obs/handler.h",
                            "#ifndef ISUM_OBS_HANDLER_H_\n"
                            "#define ISUM_OBS_HANDLER_H_\n"
                            "ISUM_SIGNAL_SAFE const char* CurrentPhase();\n"
                            "inline void Helper() { p = malloc(8); }\n"
                            "#endif  // ISUM_OBS_HANDLER_H_\n"),
                       "isum-no-alloc-in-signal"));
}

TEST(LintNoAllocInSignal, SafePatternsAndNolintPass) {
  // The real handler shape: atomics, arrays, errno save/restore.
  EXPECT_FALSE(HasRule(Lint("src/obs/profiler.cc",
                            "ISUM_SIGNAL_SAFE void Handler(int sig) {\n"
                            "  const int saved_errno = errno;\n"
                            "  Buffer* b = g_buffer.load();\n"
                            "  if (b) b->next.fetch_add(1);\n"
                            "  errno = saved_errno;\n"
                            "}\n"),
                       "isum-no-alloc-in-signal"));
  EXPECT_FALSE(HasRule(
      Lint("src/obs/handler.cc",
           "ISUM_SIGNAL_SAFE void Handler(int sig) {\n"
           "  p = malloc(8);  // NOLINT(isum-no-alloc-in-signal)\n"
           "}\n"),
      "isum-no-alloc-in-signal"));
}

// ------------------------------------------------- fixes and output

TEST(LintApplyFixes, RewritesGuardAndMutexDeclarations) {
  const std::string content =
      "#ifndef WRONG_H\n"
      "#define WRONG_H\n"
      "std::mutex mu;\n"
      "#endif\n";
  const auto vs = Lint("src/catalog/catalog.h", content);
  const std::string fixed = ApplyFixes(content, vs);
  EXPECT_NE(fixed.find("#ifndef ISUM_CATALOG_CATALOG_H_"),
            std::string::npos);
  EXPECT_NE(fixed.find("#define ISUM_CATALOG_CATALOG_H_"),
            std::string::npos);
  EXPECT_NE(fixed.find("isum::Mutex mu;"), std::string::npos);
  EXPECT_EQ(fixed.find("std::mutex"), std::string::npos);
  // Re-linting the fixed content finds nothing fixable.
  const auto again = Lint("src/catalog/catalog.h", fixed);
  for (const auto& v : again) EXPECT_TRUE(v.fixes.empty());
}

TEST(LintApplyFixes, NoFixesIsIdentity) {
  const std::string content = "abort();\n";
  const auto vs = Lint("src/x.cc", content);
  EXPECT_EQ(ApplyFixes(content, vs), content);
}

TEST(LintOutputFormats, JsonShape) {
  const auto vs = Lint("src/x.cc", "abort();\n");
  const std::string json = ToJson(vs);
  EXPECT_NE(json.find("\"violations\":["), std::string::npos);
  EXPECT_NE(json.find("\"file\":\"src/x.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"isum-no-assert\""), std::string::npos);
  EXPECT_NE(json.find("\"fixable\":false"), std::string::npos);
  // Empty input still yields a valid document.
  EXPECT_EQ(ToJson({}), "{\"violations\":[]}");
}

TEST(LintOutputFormats, SarifShape) {
  const auto vs = Lint("src/x.cc", "abort();\n");
  const std::string sarif = ToSarif(vs);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"isum_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"isum-no-assert\""), std::string::npos);
  EXPECT_NE(sarif.find("\"artifactLocation\":{\"uri\":\"src/x.cc\"}"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":1"), std::string::npos);
  // Every known rule is declared in the driver's rule table.
  for (const auto& rule : KnownRules()) {
    EXPECT_NE(sarif.find("{\"id\":\"" + rule + "\"}"), std::string::npos)
        << rule;
  }
  // Messages with quotes/backslashes are escaped into valid JSON.
  std::vector<Violation> weird;
  weird.push_back(Violation{"src/a\"b.cc", 1, 1, "isum-no-assert",
                            "say \"no\" to \\ backslashes", {}});
  const std::string escaped = ToSarif(weird);
  EXPECT_NE(escaped.find("say \\\"no\\\" to \\\\ backslashes"),
            std::string::npos);
}

}  // namespace
}  // namespace isum::lint
