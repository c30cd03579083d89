// Tests for src/common/jsonl.h: the JSON reader every loader and tracecat
// reader is built on (JsonReader*, JsonLines*), and a deterministic
// mutation test over one sample of every file format the repo reads back
// (JsonFuzz*). Suite names start with `Json` so the ASan/UBSan CI job picks
// them up via its --gtest_filter.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "catalog/schema_builder.h"
#include "common/fault.h"
#include "common/jsonl.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/stats_loader.h"
#include "tools/tracecat/tracecat.h"
#include "workload/query_store.h"
#include "workload/workload_factory.h"

namespace isum {
namespace {

// ---- reader ----

TEST(JsonReader, ParsesEveryValueTypeInDocumentOrder) {
  const auto v = ParseJson(
      " {\"z\": null, \"b\": true, \"f\": false, \"n\": -1.5e2,"
      " \"s\": \"a\\tb\\u0041\", \"arr\": [1, [], {}], \"o\": {\"k\": \"v\"}}\n");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  ASSERT_EQ(v->members.size(), 7u);
  EXPECT_EQ(v->members[0].key, "z");
  EXPECT_EQ(v->members[0].value.type, JsonValue::Type::kNull);
  EXPECT_TRUE(v->Find("b")->boolean);
  EXPECT_EQ(v->Find("f")->type, JsonValue::Type::kBool);
  EXPECT_FALSE(v->Find("f")->boolean);
  EXPECT_EQ(v->Number("n").value(), -150.0);
  EXPECT_EQ(v->String("s").value(), "a\tbA");
  ASSERT_TRUE(v->Find("arr")->is_array());
  EXPECT_EQ(v->Find("arr")->items.size(), 3u);
  EXPECT_EQ(v->Find("o")->String("k").value(), "v");
  EXPECT_EQ(v->members[6].key, "o");
}

TEST(JsonReader, TypedAccessorsRejectMissingKeysAndWrongTypes) {
  const auto v = ParseJson("{\"n\": 1, \"s\": \"x\"}");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Number("s").status().code(), StatusCode::kParseError);
  EXPECT_EQ(v->String("n").status().code(), StatusCode::kParseError);
  EXPECT_EQ(v->Number("missing").status().code(), StatusCode::kParseError);
  EXPECT_FALSE(v->Has("missing"));
  // Arrays have no members.
  const auto a = ParseJson("[\"n\"]");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->Find("n"), nullptr);
}

TEST(JsonReader, RejectsDuplicateKeys) {
  EXPECT_FALSE(ParseJson("{\"a\": 1, \"a\": 2}").ok());
  EXPECT_FALSE(ParseJson("{\"a\": 1, \"b\": {\"c\": 1, \"c\": 1}}").ok());
  // The same key in sibling objects is fine.
  EXPECT_TRUE(ParseJson("[{\"a\": 1}, {\"a\": 2}]").ok());
}

TEST(JsonReader, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseJson("{} x").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
  EXPECT_FALSE(ParseJson("[1]]").ok());
  EXPECT_FALSE(ParseJson("{},").ok());
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_TRUE(ParseJson("{} \r\n\t").ok());
}

TEST(JsonReader, CapsNestingDepth) {
  const auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(ParseJson(nested(kMaxJsonDepth)).ok());
  const auto too_deep = ParseJson(nested(kMaxJsonDepth + 1));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_NE(too_deep.status().message().find("nesting"), std::string::npos);
  EXPECT_FALSE(ParseJson(std::string(64, '{')).ok());
  // Far past the cap: a Status, not a stack overflow.
  EXPECT_FALSE(ParseJson(std::string(1'000'000, '[')).ok());
}

TEST(JsonReader, RejectsRawControlCharacterInString) {
  EXPECT_FALSE(ParseJson("\"a\nb\"").ok());
  EXPECT_FALSE(ParseJson(std::string("\"a\x01") + "b\"").ok());
  EXPECT_FALSE(ParseJson(std::string("\"a\0b\"", 5)).ok());
  EXPECT_TRUE(ParseJson("\"a\\nb\"").ok());
}

TEST(JsonReader, StringEscapesFollowJsonUnescape) {
  EXPECT_FALSE(ParseJson("\"\\u12\"").ok());  // truncated \u
  EXPECT_FALSE(ParseJson("\"\\u004").ok());
  EXPECT_FALSE(ParseJson("\"\\u00e9\"").ok());  // non-ASCII: unsupported
  EXPECT_FALSE(ParseJson("\"\\q\"").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("\"dangling\\").ok());
  EXPECT_EQ(ParseJson("\"\\u0041\\\"\\\\\\/\"")->string, "A\"\\/");
  // Raw UTF-8 passes through untouched.
  EXPECT_EQ(ParseJson("\"caf\xc3\xa9\"")->string, "caf\xc3\xa9");
  // Round trip through the escaper.
  const std::string nasty = "a\"b\\c\nd\te\x01'f\r";
  EXPECT_EQ(ParseJson("\"" + JsonEscape(nasty) + "\"")->string, nasty);
}

TEST(JsonReader, NumbersFollowRfc8259) {
  for (const char* ok : {"0", "-0", "1.5", "1e5", "1E+5", "-12.5e-3", "10"}) {
    EXPECT_TRUE(ParseJson(ok).ok()) << ok;
  }
  EXPECT_EQ(ParseJson("-12.5e-3")->number, -0.0125);
  for (const char* bad : {"01", "+1", ".5", "1.", "1e", "1e+", "-", "0x10",
                          "NaN", "Infinity", "-Infinity", "1e999", "--1"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
}

TEST(JsonReader, RejectsMalformedStructure) {
  for (const char* bad :
       {"{", "[", "{\"a\"}", "{\"a\":}", "{a:1}", "[1,]", "{\"a\":1,}",
        "[1 2]", "tru", "nul", "{\"a\" 1}", "}"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
}

TEST(JsonLines, SkipsBlankLinesAndNamesTheFailingLine) {
  const auto ok = ParseJsonLines("{\"a\":1}\n\n  \r\n[2]\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok->size(), 2u);
  EXPECT_TRUE((*ok)[1].is_array());
  EXPECT_TRUE(ParseJsonLines("").ok());

  const auto bad = ParseJsonLines("{}\n\n{}\n\n{\"a\":}\n{}\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  EXPECT_NE(bad.status().message().find("line 5"), std::string::npos)
      << bad.status().message();
  // A value may not span lines.
  EXPECT_FALSE(ParseJsonLines("{\"a\":\n1}\n").ok());
}

// ---- mutation fuzzing ----

/// Bytes substituted at every position: JSON structure, digits, escapes,
/// control and high bytes.
constexpr char kFuzzBytes[] = {'\0', '\n', ' ',  '"',  '\\', '{',    '}',
                               '[',  ']',  ',',  ':',  '-',  '0',    '9',
                               'e',  '.',  'x',  'u',  '\x7f', '\xff'};

/// Feeds every prefix truncation of `sample` and every single-byte
/// substitution from kFuzzBytes to `parse` (which returns whether the input
/// was accepted). Reaching the end means each input produced a value or a
/// Status: no crash, no hang. The unmutated sample must be accepted, and at
/// least one mutation must be rejected.
template <typename Parse>
void FuzzEveryByte(const std::string& sample, Parse parse) {
  ASSERT_TRUE(parse(sample)) << "sample must parse:\n" << sample;
  size_t rejected = 0;
  for (size_t n = 0; n < sample.size(); ++n) {
    if (!parse(sample.substr(0, n))) ++rejected;
  }
  for (size_t i = 0; i < sample.size(); ++i) {
    for (const char byte : kFuzzBytes) {
      if (sample[i] == byte) continue;
      std::string mutated = sample;
      mutated[i] = byte;
      if (!parse(mutated)) ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

bool AcceptsBench(const std::string& text) {
  const auto records = tracecat::ParseBenchRecords(text);
  if (!records.ok()) return false;
  (void)tracecat::BenchDelta(records->front(), records->back());
  return true;
}

TEST(JsonFuzz, BenchRecordEmitterShape) {
  FuzzEveryByte(
      "{\n"
      "\"schema\": \"isum-bench-v1\",\n"
      "\"label\": \"run\",\n"
      "\"bench\": \"bench_fig2_scalability\",\n"
      "\"git_rev\": \"abc1234\",\n"
      "\"wall_seconds\": 4.500000,\n"
      "\"peak_rss_bytes\": 1048576,\n"
      "\"phases\": [\n"
      "{\"name\": \"compress/greedy-pick\", \"count\": 4, \"total_us\": "
      "9000.000, \"max_us\": 4500.000}\n"
      "],\n"
      "\"counters\": [\n"
      "{\"name\": \"whatif.optimizer_calls\", \"value\": 42}\n"
      "],\n"
      "\"runs\": [\n"
      "{\"name\": \"compress/n=1000\", \"seconds\": 1.25}\n"
      "]\n"
      "}\n",
      AcceptsBench);
}

TEST(JsonFuzz, BenchRecordIsumBenchShape) {
  FuzzEveryByte(
      "{\n\"schema\": \"isum-bench-v1\",\n"
      "\"label\": \"seed=1\",\n"
      "\"bench\": \"isum_bench/realm\",\n"
      "\"git_rev\": \"abc1234\",\n"
      "\"wall_seconds\": 1.500000,\n"
      "\"peak_rss_bytes\": 2097152,\n"
      "\"phases\": [\n"
      "{\"name\": \"compress\", \"count\": 3, \"total_us\": 900.000, "
      "\"max_us\": 400.000, \"self_us\": 100.000}\n"
      "],\n\"counters\": [\n"
      "{\"name\": \"engine.whatif_calls\", \"value\": 7}\n"
      "],\n\"runs\": [\n"
      "{\"name\": \"compress_s\", \"unit\": \"s\", \"median\": 0.25, "
      "\"q1\": 0.2, \"q3\": 0.3, \"max\": 0.4, \"trials\": 3},\n"
      "{\"name\": \"quality\", \"selection_hash\": \"00000000deadbeef\", "
      "\"config_hash\": \"0000000000c0ffee\", \"improvement_pct\": 12.5, "
      "\"attempted\": 3, \"failed\": 0}\n"
      "]\n}\n",
      AcceptsBench);
}

TEST(JsonFuzz, ProfileRecord) {
  obs::ProfileDump dump;
  dump.sample_hz = 100;
  dump.samples = 4;
  dump.attributed = 3;
  dump.alloc_enabled = true;
  dump.alloc_total_bytes = 4096;
  dump.alloc_total_count = 8;
  dump.alloc_live_bytes = -128;
  dump.alloc_peak_bytes = 2048;
  dump.stacks.push_back(
      obs::ProfileStack{"compress/greedy-pick", {"main", "Greedy"}, 3});
  dump.stacks.push_back(obs::ProfileStack{"", {"main"}, 1});
  dump.alloc_phases.push_back(obs::ProfileAllocPhase{"compress", 4096, 8});
  obs::ProfileMeta meta;
  meta.label = "fuzz";
  meta.bench = "bench_x";
  meta.git_rev = "deadbee";
  meta.wall_seconds = 0.25;
  FuzzEveryByte(obs::ProfileJson(dump, meta), [](const std::string& text) {
    const auto record = tracecat::ParseProfileJson(text);
    if (!record.ok()) return false;
    const auto checked = tracecat::CheckProfile(record.value(), 50.0);
    if (checked.ok()) {
      EXPECT_EQ(checked.value(), record->samples);
    }
    (void)tracecat::ProfileReport(record.value(), 5);
    (void)tracecat::ProfileDiff(record.value(), record.value(), 5);
    return true;
  });
}

TEST(JsonFuzz, ChromeTrace) {
  obs::TraceDump dump;
  dump.thread_names = {"main", "pool-worker-0"};
  dump.spans.push_back(obs::SpanRecord{"compress/total", 0, 0, 1000, 9000});
  dump.spans.push_back(obs::SpanRecord{"whatif/optimize", 1, 0, 3000, 500});
  FuzzEveryByte(obs::ChromeTraceJson(dump), [](const std::string& text) {
    const auto events = tracecat::ParseChromeTrace(text);
    if (!events.ok()) return false;
    (void)tracecat::Report(events.value(), 5);
    return true;
  });
}

TEST(JsonFuzz, MetricsTicks) {
  // A trace file with two metrics ticks (obs::Tracer::WriteMetrics) among
  // a decision event and a span. Prefixes stand for killed runs and for
  // `tracecat watch` reading a file mid-write: the last complete tick must
  // still be found.
  const std::string trace =
      std::string("[\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
                  "\"process_name\",\"args\":{\"name\":\"fuzz\","
                  "\"schema\":\"") +
      obs::kDecisionSchema +
      "\"}},\n"
      "{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"name\":\"metrics\",\"ts\":0.5,"
      "\"args\":{\"whatif.optimizer_calls\":0,"
      "\"budget.remaining_seconds\":-1}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"name\":\"fault\","
      "\"cat\":\"decision\",\"ts\":1.000,\"args\":{\"seq\":0,"
      "\"site\":\"whatif.cost\",\"code\":\"unavailable\"}},\n"
      "{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"name\":\"metrics\","
      "\"ts\":1000000.25,\"args\":{\"fault.injected\":3,"
      "\"whatif.cache_hits\":75,\"whatif.optimizer_calls\":25,"
      "\"budget.remaining_seconds\":4.5,"
      "\"fault.latency.whatif_cost.count\":1,"
      "\"fault.latency.whatif_cost.sum\":2000000,"
      "\"fault.latency.whatif_cost.p50\":2000000,"
      "\"fault.latency.whatif_cost.p95\":2000000,"
      "\"fault.latency.whatif_cost.p99\":2000000}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"main\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"compress/total\","
      "\"cat\":\"isum\",\"ts\":1.000,\"dur\":4.000,\"args\":{\"depth\":0}}\n"
      "]\n";
  FuzzEveryByte(trace, [](const std::string& text) {
    const auto tick = tracecat::LastMetrics(text);
    if (!tick.ok()) return false;
    (void)tracecat::MetricsReport(tick.value());
    // The other readers of the same file skip the ticks.
    const auto spans = tracecat::ParseChromeTrace(text);
    if (spans.ok()) (void)tracecat::Report(spans.value(), 5);
    const auto journal = tracecat::ParseJournal(text);
    if (journal.ok()) {
      EXPECT_LE(journal->events.size(), 1u);
    }
    return true;
  });
}

TEST(JsonFuzz, Journal) {
  // A trace file with decision events as obs::Tracer writes it. Prefixes
  // stand for killed runs (no "]", a torn last line), which explain must
  // still render.
  const size_t order[] = {7, 3};
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(
                    obs::SelectionOrderHash(order, 2)));
  const std::string trace =
      std::string("[\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
                  "\"process_name\",\"args\":{\"name\":\"fuzz\","
                  "\"schema\":\"") +
      obs::kDecisionSchema +
      "\"}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"name\":\"compress_begin\","
      "\"cat\":\"decision\",\"ts\":1.000,\"args\":{\"seq\":0,\"n\":10,"
      "\"k\":2,\"algorithm\":\"summary-features\",\"threads\":1}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"name\":\"select\","
      "\"cat\":\"decision\",\"ts\":2.000,\"args\":{\"seq\":1,\"round\":0,"
      "\"query\":7,\"benefit\":0.5,\"gap\":0.1,\"shard\":0,\"eligible\":10}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"name\":\"select\","
      "\"cat\":\"decision\",\"ts\":3.000,\"args\":{\"seq\":2,\"round\":1,"
      "\"query\":3,\"benefit\":0.25,\"gap\":-1,\"shard\":0,\"eligible\":9}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"name\":\"compress_end\","
      "\"cat\":\"decision\",\"ts\":4.000,\"args\":{\"seq\":3,\"selected\":2,"
      "\"selection_hash\":\"" +
      std::string(hash) +
      "\",\"benefit_sum\":0.75,\"stop_reason\":\"complete\"}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"name\":\"attribution\","
      "\"cat\":\"decision\",\"ts\":5.000,\"args\":{\"seq\":4,\"query\":7,"
      "\"weight\":2.5,\"estimated\":0.5,\"realized\":40}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"main\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"compress/total\","
      "\"cat\":\"isum\",\"ts\":1.000,\"dur\":4.000,\"args\":{\"depth\":0}}\n"
      "]\n";
  FuzzEveryByte(trace, [](const std::string& text) {
    const auto journal = tracecat::ParseJournal(text);
    if (!journal.ok()) return false;
    // Explain renders every file the strict check accepts.
    const bool valid = tracecat::CheckJournal(journal.value()).ok();
    const auto report = tracecat::ExplainJournal(journal.value(), 5);
    if (valid) {
      EXPECT_TRUE(report.ok()) << report.status().ToString();
    }
    // The span report reads the same file.
    const auto spans = tracecat::ParseChromeTrace(text);
    if (spans.ok()) (void)tracecat::Report(spans.value(), 5);
    return true;
  });
}

TEST(JsonFuzz, QueryStore) {
  workload::GeneratorOptions gen;
  gen.instances_per_template = 1;
  gen.max_templates = 1;
  const workload::GeneratedWorkload env = workload::MakeTpch(gen);
  FuzzEveryByte(
      "{\"sql\": \"SELECT * FROM lineitem WHERE l_quantity < 24\", "
      "\"cost\": 12.5, \"tag\": \"q1\"}\n"
      "{\"tag\": \"cost\", \"cost\": 3, \"sql\": \"SELECT * FROM lineitem\"}\n",
      [&](const std::string& text) {
        workload::Workload w(env.workload->env());
        return workload::LoadQueryStore(text, &w).ok();
      });
}

TEST(JsonFuzz, ColumnStats) {
  catalog::Catalog catalog;
  catalog::SchemaBuilder(&catalog)
      .Table("orders", 1000)
      .Key("id", catalog::ColumnType::kInt)
      .Col("odate", catalog::ColumnType::kDate);
  FuzzEveryByte(
      "{\"table\": \"orders\", \"column\": \"odate\", \"distinct\": 20, "
      "\"min\": 0, \"max\": 99, \"distribution\": \"zipf\", \"skew\": 1.5, "
      "\"nulls\": 0.1}\n",
      [&](const std::string& text) {
        stats::StatsManager stats(&catalog);
        return stats::LoadColumnStats(text, catalog, &stats).ok();
      });
}

TEST(JsonFuzz, FaultSpec) {
  FuzzEveryByte(
      "{\"seed\":42};{\"site\":\"whatif.cost\",\"kind\":\"error\","
      "\"p\":0.25};{\"site\":\"*\",\"kind\":\"latency\",\"p\":1.0,"
      "\"ms\":0.5,\"after\":7}",
      [](const std::string& text) {
        const bool ok = FaultInjector::Global().Configure(text).ok();
        FaultInjector::Global().Reset();
        return ok;
      });
}

}  // namespace
}  // namespace isum
