// Tests for tools/tracecat: parsing the tracer's Chrome-trace output (its
// spans, decision events and metrics ticks), phase aggregation, top-k
// selection, and the rendered reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/checkpoint.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tools/tracecat/tracecat.h"

namespace isum::tracecat {
namespace {

obs::TraceDump SampleDump() {
  obs::TraceDump dump;
  dump.thread_names = {"main", "pool-worker-0"};
  // name, tid, depth, start_nanos, dur_nanos
  dump.spans.push_back(
      obs::SpanRecord{"compress/total", 0, 0, 1000, 9000000});
  dump.spans.push_back(
      obs::SpanRecord{"compress/greedy-pick", 0, 1, 2000, 8000000});
  dump.spans.push_back(
      obs::SpanRecord{"whatif/optimize", 1, 0, 3000, 500000});
  dump.spans.push_back(
      obs::SpanRecord{"whatif/optimize", 1, 0, 600000, 700000});
  return dump;
}

/// A trace file as obs::Tracer writes it, with one metrics tick per
/// snapshot. `closed` is as Close() leaves it; otherwise it is what a
/// killed run leaves (each tick is flushed, there is no "]").
std::string TraceWithTicks(const std::vector<obs::MetricsSnapshot>& ticks,
                           bool closed) {
  // Named after the running test: ctest runs tests as parallel processes.
  const std::string path =
      testing::TempDir() + "/tracecat_ticks." +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".json";
  obs::Tracer& tracer = obs::Tracer::Global();
  EXPECT_TRUE(tracer.Open(path, "unit"));
  for (const obs::MetricsSnapshot& tick : ticks) {
    EXPECT_TRUE(tracer.WriteMetrics(tick));
  }
  if (closed) {
    EXPECT_TRUE(tracer.Close().ok);
  }
  StatusOr<std::string> content = ReadFileToString(path);
  tracer.Close();
  EXPECT_TRUE(content.ok()) << content.status().ToString();
  return content.ok() ? *content : std::string();
}

/// The rendered last tick of a one-tick trace of `registry`.
std::string RenderedMetrics(const obs::MetricsRegistry& registry) {
  const auto tick = LastMetrics(TraceWithTicks({registry.Snapshot()}, true));
  EXPECT_TRUE(tick.ok()) << tick.status().ToString();
  return tick.ok() ? MetricsReport(tick.value()) : std::string();
}

TEST(TracecatParse, RoundTripsExporterOutput) {
  const std::string json = obs::ChromeTraceJson(SampleDump());
  const auto events = ParseChromeTrace(json);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  // 2 thread_name metadata events + 4 spans.
  ASSERT_EQ(events.value().size(), 6u);
  EXPECT_EQ(events.value()[0].phase, "M");
  EXPECT_EQ(events.value()[0].thread_name, "main");
  EXPECT_EQ(events.value()[1].thread_name, "pool-worker-0");
  const TraceEvent& span = events.value()[2];
  EXPECT_EQ(span.phase, "X");
  EXPECT_EQ(span.name, "compress/total");
  EXPECT_EQ(span.tid, 0u);
  EXPECT_DOUBLE_EQ(span.ts_us, 1.0);
  EXPECT_DOUBLE_EQ(span.dur_us, 9000.0);
}

TEST(TracecatParse, RejectsMalformedInput) {
  EXPECT_FALSE(ParseChromeTrace("not json\n").ok());
  EXPECT_FALSE(ParseChromeTrace("[\n{\"ph\":\"Q\",\"tid\":0}\n]\n").ok());
}

TEST(TracecatAggregate, SumsPerPhaseSortedByTotal) {
  const std::string json = obs::ChromeTraceJson(SampleDump());
  const auto events = ParseChromeTrace(json);
  ASSERT_TRUE(events.ok());
  const std::vector<PhaseStat> phases = AggregatePhases(events.value());
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].name, "compress/total");
  EXPECT_EQ(phases[0].count, 1u);
  EXPECT_DOUBLE_EQ(phases[0].total_us, 9000.0);
  EXPECT_EQ(phases[1].name, "compress/greedy-pick");
  EXPECT_EQ(phases[2].name, "whatif/optimize");
  EXPECT_EQ(phases[2].count, 2u);
  EXPECT_DOUBLE_EQ(phases[2].total_us, 1200.0);
  EXPECT_DOUBLE_EQ(phases[2].max_us, 700.0);
}

TEST(TracecatTopSlowest, OrdersByDurationAndTruncates) {
  const std::string json = obs::ChromeTraceJson(SampleDump());
  const auto events = ParseChromeTrace(json);
  ASSERT_TRUE(events.ok());
  const std::vector<TraceEvent> top = TopSlowest(events.value(), 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].name, "compress/total");
  EXPECT_EQ(top[1].name, "compress/greedy-pick");
}

TEST(TracecatMetrics, ReadsTheLastTickOfATrace) {
  obs::MetricsRegistry registry;
  registry.GetCounter("whatif.optimizer_calls")->Add(10);
  const obs::MetricsSnapshot first = registry.Snapshot();
  registry.GetCounter("whatif.optimizer_calls")->Add(20);
  registry.GetGauge("pool.size")->Set(2.5);
  obs::Histogram* lat = registry.GetHistogram("whatif.optimize_nanos");
  for (int i = 0; i < 30; ++i) lat->Observe(1000000);
  const std::string trace = TraceWithTicks({first, registry.Snapshot()}, true);

  const auto tick = LastMetrics(trace);
  ASSERT_TRUE(tick.ok()) << tick.status().ToString();
  EXPECT_EQ(tick->Value("whatif.optimizer_calls"), 30.0);
  EXPECT_EQ(tick->Value("pool.size"), 2.5);
  EXPECT_EQ(tick->Value("whatif.optimize_nanos.count"), 30.0);
  EXPECT_GT(tick->Value("whatif.optimize_nanos.p50"), 0.0);
  EXPECT_EQ(tick->Value("absent"), 0.0);
  EXPECT_EQ(tick->Value("absent", -1.0), -1.0);
  // The span reader skips the ticks.
  const auto spans = ParseChromeTrace(trace);
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  // A trace without ticks (isum_bench's span-only traces) has none.
  const auto none = LastMetrics(obs::ChromeTraceJson(SampleDump()));
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(LastMetrics("not a trace\n").ok());
  EXPECT_FALSE(LastMetrics("[\n{\"ph\":\"C\",\"name\":\"metrics\",\"ts\":1,"
                           "\"args\":{\"x\":\"text\"}}\n]\n")
                   .ok());
}

TEST(TracecatReport, RendersPhaseAndWhatIfTables) {
  const std::string json = obs::ChromeTraceJson(SampleDump());
  const auto events = ParseChromeTrace(json);
  ASSERT_TRUE(events.ok());
  const std::string report = Report(events.value(), 3);
  EXPECT_NE(report.find("== per-phase totals =="), std::string::npos);
  EXPECT_NE(report.find("compress/greedy-pick"), std::string::npos);
  EXPECT_NE(report.find("== top 3 slowest spans =="), std::string::npos);

  obs::MetricsRegistry registry;
  registry.GetCounter("whatif.optimizer_calls")->Add(25);
  registry.GetCounter("whatif.cache_hits")->Add(75);
  const std::string metrics = RenderedMetrics(registry);
  EXPECT_NE(metrics.find("== metrics at "), std::string::npos);
  EXPECT_NE(metrics.find("what-if: 25 optimizer call(s), 75 cache hit(s) "
                         "(75.0% hit rate)"),
            std::string::npos)
      << metrics;
  EXPECT_EQ(metrics.find("optimize latency"), std::string::npos);
}

TEST(TracecatReport, EmptyTraceStillRenders) {
  const std::string report = Report({}, 10);
  EXPECT_NE(report.find("(no spans)"), std::string::npos);
}

TEST(TracecatReport, RendersRobustnessCountersWhenPresent) {
  obs::MetricsRegistry registry;
  registry.GetCounter("fault.injected")->Add(12);
  registry.GetCounter("retry.attempts")->Add(34);
  registry.GetCounter("deadline.exceeded")->Add(5);
  registry.GetHistogram("fault.latency.whatif.cost")->Observe(2'000'000);
  const std::string metrics = RenderedMetrics(registry);
  EXPECT_NE(metrics.find("robustness: 34 retry(ies), 12 fault(s) injected, "
                         "5 deadline hit(s)"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("fault latency whatif.cost: p50 "), std::string::npos)
      << metrics;
}

/// A hand-written isum-bench-v1 record in the emitters' layout
/// (one key or section entry per line).
std::string SampleBenchRecord(const std::string& label, double wall,
                              double greedy_us, double feat_us) {
  std::string out;
  out += "{\n";
  out += "\"schema\": \"isum-bench-v1\",\n";
  out += "\"label\": \"" + label + "\",\n";
  out += "\"bench\": \"bench_fig2_scalability\",\n";
  out += "\"git_rev\": \"abc1234\",\n";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "\"wall_seconds\": %.6f,\n", wall);
  out += buf;
  out += "\"peak_rss_bytes\": 1048576,\n";
  out += "\"phases\": [\n";
  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"compress/greedy-pick\", \"count\": 4, "
                "\"total_us\": %.3f, \"max_us\": %.3f},\n",
                greedy_us, greedy_us / 2);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"compress/feature-extraction\", \"count\": 4, "
                "\"total_us\": %.3f, \"max_us\": %.3f}\n",
                feat_us, feat_us / 2);
  out += buf;
  out += "],\n";
  out += "\"counters\": [\n";
  out += "{\"name\": \"whatif.optimizer_calls\", \"value\": 42}\n";
  out += "],\n";
  out += "\"runs\": [\n";
  out += "{\"name\": \"compress/n=1000\", \"seconds\": 1.25, "
         "\"selection_hash\": \"deadbeef\"}\n";
  out += "]\n";
  out += "}\n";
  return out;
}

TEST(TracecatBench, ParsesSingleRecord) {
  const auto parsed =
      ParseBenchRecords(SampleBenchRecord("pre", 4.5, 9000.0, 1200.0));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 1u);
  const BenchRecord& r = parsed.value()[0];
  EXPECT_EQ(r.label, "pre");
  EXPECT_EQ(r.bench, "bench_fig2_scalability");
  EXPECT_EQ(r.git_rev, "abc1234");
  EXPECT_DOUBLE_EQ(r.wall_seconds, 4.5);
  EXPECT_EQ(r.peak_rss_bytes, 1048576u);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_EQ(r.phases[0].name, "compress/greedy-pick");
  EXPECT_EQ(r.phases[0].count, 4u);
  EXPECT_DOUBLE_EQ(r.phases[0].total_us, 9000.0);
  ASSERT_EQ(r.counters.size(), 1u);
  EXPECT_EQ(r.counters[0].first, "whatif.optimizer_calls");
  EXPECT_DOUBLE_EQ(r.counters[0].second, 42.0);
  ASSERT_EQ(r.run_names.size(), 1u);
  EXPECT_EQ(r.run_names[0], "compress/n=1000");
}

TEST(TracecatBench, ParsesTrajectoryArray) {
  const std::string trajectory =
      "[\n" + SampleBenchRecord("pre", 4.5, 9000.0, 1200.0) + ",\n" +
      SampleBenchRecord("post", 0.9, 800.0, 1200.0) + "]\n";
  const auto parsed = ParseBenchRecords(trajectory);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[0].label, "pre");
  EXPECT_EQ(parsed.value()[1].label, "post");
}

TEST(TracecatBench, RejectsSchemaInvalidInput) {
  // Wrong schema tag.
  std::string wrong_tag = SampleBenchRecord("x", 1.0, 1.0, 1.0);
  wrong_tag.replace(wrong_tag.find("isum-bench-v1"), 13, "isum-bench-v9");
  EXPECT_FALSE(ParseBenchRecords(wrong_tag).ok());
  // Missing schema line entirely.
  std::string no_tag = SampleBenchRecord("x", 1.0, 1.0, 1.0);
  const size_t tag_line = no_tag.find("\"schema\"");
  no_tag.erase(tag_line, no_tag.find('\n', tag_line) - tag_line + 1);
  EXPECT_FALSE(ParseBenchRecords(no_tag).ok());
  // Unterminated record and non-record garbage.
  EXPECT_FALSE(ParseBenchRecords("{\n\"schema\": \"isum-bench-v1\",\n").ok());
  EXPECT_FALSE(ParseBenchRecords("not a bench file\n").ok());
  EXPECT_FALSE(ParseBenchRecords("[\n]\n").ok());
}

/// The same JSON with every line break removed.
std::string OnOneLine(std::string json) {
  json.erase(std::remove(json.begin(), json.end(), '\n'), json.end());
  return json;
}

TEST(TracecatBench, SingleLineRecordParsesLikeTheEmitterLayout) {
  const std::string emitted = SampleBenchRecord("pre", 4.5, 9000.0, 1200.0);
  const auto a = ParseBenchRecords(emitted);
  const auto b = ParseBenchRecords(OnOneLine(emitted));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a.value().size(), 1u);
  ASSERT_EQ(b.value().size(), 1u);
  const BenchRecord& x = a.value()[0];
  const BenchRecord& y = b.value()[0];
  EXPECT_EQ(x.label, y.label);
  EXPECT_EQ(x.bench, y.bench);
  EXPECT_EQ(x.git_rev, y.git_rev);
  EXPECT_EQ(x.wall_seconds, y.wall_seconds);
  EXPECT_EQ(x.peak_rss_bytes, y.peak_rss_bytes);
  ASSERT_EQ(x.phases.size(), y.phases.size());
  for (size_t i = 0; i < x.phases.size(); ++i) {
    EXPECT_EQ(x.phases[i].name, y.phases[i].name);
    EXPECT_EQ(x.phases[i].count, y.phases[i].count);
    EXPECT_EQ(x.phases[i].total_us, y.phases[i].total_us);
    EXPECT_EQ(x.phases[i].max_us, y.phases[i].max_us);
  }
  EXPECT_EQ(x.counters, y.counters);
  EXPECT_EQ(x.run_names, y.run_names);
}

TEST(TracecatBench, DeltaReportsPerPhaseAndWallChanges) {
  const auto from =
      ParseBenchRecords(SampleBenchRecord("pre", 4.0, 9000.0, 1200.0));
  const auto to =
      ParseBenchRecords(SampleBenchRecord("post", 1.0, 900.0, 1200.0));
  ASSERT_TRUE(from.ok() && to.ok());
  const std::string delta = BenchDelta(from.value()[0], to.value()[0]);
  EXPECT_NE(delta.find("pre (abc1234) -> post (abc1234)"), std::string::npos);
  EXPECT_NE(delta.find("compress/greedy-pick"), std::string::npos);
  EXPECT_NE(delta.find("-90.0%"), std::string::npos);
  EXPECT_NE(delta.find("+0.0%"), std::string::npos);
  EXPECT_NE(delta.find("wall: 4.00s -> 1.00s (-75.0%)"), std::string::npos);
}

TEST(TracecatBench, DeltaMarksPhasesMissingOnOneSide) {
  auto from = ParseBenchRecords(SampleBenchRecord("pre", 4.0, 9000.0, 1200.0));
  auto to = ParseBenchRecords(SampleBenchRecord("post", 1.0, 900.0, 1200.0));
  ASSERT_TRUE(from.ok() && to.ok());
  BenchRecord a = from.value()[0];
  BenchRecord b = to.value()[0];
  a.phases.push_back(PhaseStat{"compress/gone", 1, 50.0, 50.0});
  b.phases.push_back(PhaseStat{"compress/new", 1, 75.0, 75.0});
  const std::string delta = BenchDelta(a, b);
  EXPECT_NE(delta.find("compress/gone"), std::string::npos);
  EXPECT_NE(delta.find("compress/new"), std::string::npos);
}

/// One decision event line as obs::Tracer::Instant writes it, with
/// `fields` (comma-led) after the seq.
std::string InstantLine(const char* name, int seq, const std::string& fields) {
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"name\":\"%s\","
                "\"cat\":\"decision\",\"ts\":%d.000,\"args\":{\"seq\":%d",
                name, seq + 1, seq);
  return head + fields + "}}";
}

/// The lines of a hand-written trace file with one clean compression block
/// whose selection hash is genuinely correct (computed via the shared
/// obs::SelectionOrderHash definition), then a span: the process_name
/// header, 12 decision events and one span, without the closing "]".
std::vector<std::string> SampleTraceLines() {
  const size_t order[] = {7, 3};
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(
                    obs::SelectionOrderHash(order, 2)));
  return {
      "[",
      std::string("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
                  "\"args\":{\"name\":\"unit\",\"schema\":\"") +
          obs::kDecisionSchema + "\"}}",
      InstantLine("compress_begin", 0,
                  ",\"n\":10,\"k\":2,\"algorithm\":\"summary-features\""),
      InstantLine("select", 1,
                  ",\"round\":0,\"query\":7,\"benefit\":0.5,\"gap\":0.1,"
                  "\"eligible\":10"),
      InstantLine("select", 2,
                  ",\"round\":1,\"query\":3,\"benefit\":0.25,\"gap\":0.005,"
                  "\"eligible\":9"),
      InstantLine("compress_end", 3,
                  std::string(",\"selected\":2,\"selection_hash\":\"") + hash +
                      "\",\"benefit_sum\":0.75,\"stop_reason\":\"complete\""),
      InstantLine("enum_round", 4,
                  ",\"round\":0,\"candidates\":6,\"best_index\":2,"
                  "\"improvement\":12.5,\"cache_hits\":4,"
                  "\"optimizer_calls\":8,\"skipped\":3"),
      InstantLine("enum_end", 5,
                  ",\"indexes\":1,\"initial_cost\":100,\"final_cost\":87.5,"
                  "\"stop_reason\":\"complete\""),
      InstantLine("retry", 6,
                  ",\"site\":\"whatif.cost\",\"attempt\":1,"
                  "\"backoff_us\":250"),
      InstantLine("fault", 7,
                  ",\"site\":\"whatif.cost\",\"code\":\"unavailable\""),
      InstantLine("attribution", 8,
                  ",\"query\":7,\"weight\":2.5,\"estimated\":0.5,"
                  "\"realized\":40"),
      InstantLine("attribution", 9,
                  ",\"query\":3,\"weight\":1.5,\"estimated\":0.25,"
                  "\"realized\":60"),
      InstantLine("pipeline_end", 10,
                  ",\"algorithm\":\"isum\",\"k\":2,"
                  "\"improvement_percent\":12.5,\"stop_reason\":\"complete\""),
      InstantLine("ckpt_write", 11,
                  ",\"phase\":\"enum\",\"epoch\":1,\"rounds\":1,"
                  "\"bytes\":64"),
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"compress/total\","
      "\"cat\":\"isum\",\"ts\":1.000,\"dur\":9.000,\"args\":{\"depth\":0}}",
  };
}

/// `lines` joined the way the tracer writes them; `closed` appends the "]".
std::string JoinTrace(const std::vector<std::string>& lines, bool closed) {
  std::string out = lines.front();
  for (size_t i = 1; i < lines.size(); ++i) {
    out += i == 1 ? "\n" : ",\n";
    out += lines[i];
  }
  if (closed) out += "\n]\n";
  return out;
}

std::string SampleJournal() { return JoinTrace(SampleTraceLines(), true); }

TEST(TracecatJournal, ParsesAndChecksWellFormedJournal) {
  const auto journal = ParseJournal(SampleJournal());
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  const std::vector<JournalEvent>& events = journal.value().events;
  ASSERT_EQ(events.size(), 12u);  // the span is not a decision event
  EXPECT_EQ(events[1].event, "select");
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_DOUBLE_EQ(events[1].t_us, 2.0);
  EXPECT_DOUBLE_EQ(events[1].Number("benefit").value(), 0.5);
  EXPECT_EQ(journal.value().label, "unit");
  EXPECT_TRUE(journal.value().closed);

  const auto checked = CheckJournal(journal.value());
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_EQ(checked.value(), 12u);

  // The span report reads the same file and skips the decision events.
  const auto spans = ParseChromeTrace(SampleJournal());
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  ASSERT_EQ(spans.value().size(), 1u);
  EXPECT_EQ(spans.value()[0].name, "compress/total");
}

TEST(TracecatJournal, ExplainReconstructsTheRun) {
  const auto journal = ParseJournal(SampleJournal());
  ASSERT_TRUE(journal.ok());
  const auto report = ExplainJournal(journal.value(), 5);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string& text = report.value();
  EXPECT_NE(text.find("== journal: unit (12 events) =="), std::string::npos);
  EXPECT_NE(text.find("summary-features, n=10 -> k=2"), std::string::npos);
  EXPECT_NE(text.find("selection order: 7 3"), std::string::npos);
  EXPECT_NE(text.find("(recomputed: match)"), std::string::npos);
  // Round 1 (margin 0.005) is more contested than round 0 (margin 0.1).
  const size_t round1 = text.find(" 0.005 ");
  const size_t round0 = text.find(" 0.1 ");
  EXPECT_NE(round1, std::string::npos) << text;
  EXPECT_NE(round0, std::string::npos) << text;
  EXPECT_LT(round1, round0) << "contested rounds must sort by margin";
  EXPECT_NE(text.find("== enumeration: 1 round(s) =="), std::string::npos);
  EXPECT_NE(text.find("cost 100 -> 87.5 (12.5%)"), std::string::npos);
  EXPECT_NE(text.find("== benefit attribution (2 selected queries) =="),
            std::string::npos);
  // Estimated ranks 7 above 3; realized ranks 3 above 7: rank error 1 each.
  EXPECT_NE(text.find("mean rank error: 1.00 over 2 queries"),
            std::string::npos);
  EXPECT_NE(text.find("retry whatif.cost attempt 1"), std::string::npos);
  EXPECT_NE(text.find("FAULT whatif.cost surfaced unavailable"),
            std::string::npos);
  EXPECT_NE(text.find("wrote enum epoch 1 (1 round(s), 64 bytes)"),
            std::string::npos);
  EXPECT_NE(text.find("== pipeline: isum k=2 improvement 12.50% (complete)"),
            std::string::npos);
}

TEST(TracecatJournal, CheckRejectsHashMismatch) {
  std::string trace = SampleJournal();
  // Corrupt one selected query id: the recorded hash no longer matches the
  // replayed selection order.
  const size_t at = trace.find("\"query\":3");
  ASSERT_NE(at, std::string::npos);
  trace.replace(at, 9, "\"query\":4");
  const auto journal = ParseJournal(trace);
  ASSERT_TRUE(journal.ok());
  const auto checked = CheckJournal(journal.value());
  ASSERT_FALSE(checked.ok());
  EXPECT_NE(checked.status().ToString().find("selection hash mismatch"),
            std::string::npos);
  // Explain still renders, and says so.
  const auto report = ExplainJournal(journal.value(), 5);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report.value().find("selection hash mismatch"),
            std::string::npos);
}

TEST(TracecatJournal, OlderTracesWithThreadsAndShardStillCheck) {
  // Traces written while all-pairs selection could run on threads carry
  // `threads` on compress_begin and `shard` on select. Only required
  // fields are checked, so those files stay readable.
  std::vector<std::string> lines = SampleTraceLines();
  lines[2].insert(lines[2].rfind("}}"), ",\"threads\":1");
  lines[3].insert(lines[3].rfind("}}"), ",\"shard\":0");
  const auto journal = ParseJournal(JoinTrace(lines, true));
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal.value().events[0].Number("threads").value(), 1.0);
  const auto checked = CheckJournal(journal.value());
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  const auto report = ExplainJournal(journal.value(), 5);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report.value().find("(recomputed: match)"), std::string::npos);
}

TEST(TracecatJournal, CheckRejectsStructuralDamage) {
  const std::vector<std::string> lines = SampleTraceLines();
  auto check = [](const std::string& trace) {
    auto journal = ParseJournal(trace);
    EXPECT_TRUE(journal.ok()) << journal.status().ToString();
    return journal.ok() ? CheckJournal(journal.value())
                        : StatusOr<size_t>(journal.status());
  };

  // No process_name header: no schema tag to check against.
  std::vector<std::string> headless = lines;
  headless.erase(headless.begin() + 1);
  EXPECT_FALSE(check(JoinTrace(headless, true)).ok());

  // A seq gap (an event removed mid-file) must be called out.
  std::vector<std::string> gapped = lines;
  gapped.erase(gapped.begin() + 3);
  const auto gap_check = check(JoinTrace(gapped, true));
  ASSERT_FALSE(gap_check.ok());
  EXPECT_NE(gap_check.status().ToString().find("non-dense seq"),
            std::string::npos);

  // A compression block that never ends.
  std::vector<std::string> unterminated = lines;
  unterminated.resize(5);
  EXPECT_FALSE(check(JoinTrace(unterminated, true)).ok());

  // Unknown event types are schema violations, not silently skipped.
  std::string unknown = SampleJournal();
  const size_t retry_at = unknown.find("\"retry\"");
  unknown.replace(retry_at, 7, "\"rerun\"");
  EXPECT_FALSE(check(unknown).ok());

  // Missing required field.
  std::string missing = SampleJournal();
  const size_t gap_at = missing.find(",\"gap\":0.1");
  missing.erase(gap_at, 10);
  const auto missing_check = check(missing);
  ASSERT_FALSE(missing_check.ok());
  EXPECT_NE(missing_check.status().ToString().find("missing field"),
            std::string::npos);

  // A file without its closing "]" is not a clean run.
  const auto open_check = check(JoinTrace(lines, false));
  ASSERT_FALSE(open_check.ok());
  EXPECT_NE(open_check.status().ToString().find("not closed"),
            std::string::npos);

  EXPECT_FALSE(ParseJournal("").ok());
  EXPECT_FALSE(ParseJournal("not a trace\n").ok());
}

TEST(TracecatJournal, ExplainReadsAKilledRunCutAnywhereInItsLastLine) {
  // A run killed mid-write leaves no "]" and possibly half an event. For
  // every cut of the last decision event, explain renders every complete
  // event and names what is missing; --check fails.
  std::vector<std::string> lines = SampleTraceLines();
  lines.pop_back();  // the span: a killed run never wrote its spans
  const std::string whole = JoinTrace(lines, false);
  const size_t last_line = whole.rfind('\n') + 1;
  for (size_t cut = last_line; cut <= whole.size(); ++cut) {
    SCOPED_TRACE(testing::Message() << "cut at byte " << cut);
    const auto journal = ParseJournal(whole.substr(0, cut));
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    const bool torn = cut > last_line && cut < whole.size();
    EXPECT_EQ(!journal.value().torn_tail.empty(), torn);
    EXPECT_FALSE(journal.value().closed);
    EXPECT_EQ(journal.value().events.size(), cut == whole.size() ? 12u : 11u);
    EXPECT_FALSE(CheckJournal(journal.value()).ok());
    const auto report = ExplainJournal(journal.value(), 5);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_NE(report.value().find("NOT cleanly closed"), std::string::npos);
    EXPECT_EQ(report.value().find("torn last line dropped") !=
                  std::string::npos,
              torn);
    EXPECT_NE(report.value().find("(recomputed: match)"), std::string::npos);
  }
}

TEST(TracecatJournal, MalformedLineBeforeTheLastIsAnError) {
  std::vector<std::string> lines = SampleTraceLines();
  lines[3].resize(lines[3].size() / 2);
  for (const bool closed : {true, false}) {
    const auto journal = ParseJournal(JoinTrace(lines, closed));
    ASSERT_FALSE(journal.ok());
    EXPECT_NE(journal.status().ToString().find("line 4"), std::string::npos)
        << journal.status().ToString();
  }
}

TEST(TracecatWatch, ParsesMetricsSnapshotAndRendersFrame) {
  obs::MetricsRegistry registry;
  registry.GetCounter("compress.runs")->Add(2);
  registry.GetCounter("compress.input_queries")->Add(20000);
  registry.GetCounter("compress.selected_queries")->Add(100);
  registry.GetCounter("whatif.optimizer_calls")->Add(25);
  registry.GetCounter("whatif.cache_hits")->Add(75);
  registry.GetCounter("retry.attempts")->Add(3);
  registry.GetGauge("budget.remaining_seconds")->Set(42.5);
  obs::Histogram* lat = registry.GetHistogram("whatif.optimize_nanos");
  for (int i = 0; i < 10; ++i) lat->Observe(2'000'000);

  const std::string frame = RenderedMetrics(registry);
  EXPECT_NE(frame.find("budget remaining: 42.5s"), std::string::npos);
  EXPECT_NE(frame.find("compression: 2 run(s), 20000 -> 100 queries"),
            std::string::npos);
  EXPECT_NE(frame.find("(75.0% hit rate)"), std::string::npos);
  EXPECT_NE(frame.find("optimize latency: p50"), std::string::npos);
  EXPECT_NE(frame.find("robustness: 3 retry(ies)"), std::string::npos);
}

TEST(TracecatWatch, ReadsAnUnclosedTraceCutAnywhereInItsLastTick) {
  // `tracecat watch` reads a file that is still being written, and a killed
  // run's file: for every cut of the last tick, the tick before it is read.
  obs::MetricsRegistry registry;
  obs::Counter* calls = registry.GetCounter("whatif.optimizer_calls");
  calls->Add(1);
  const obs::MetricsSnapshot first = registry.Snapshot();
  calls->Add(1);
  const std::string whole =
      TraceWithTicks({first, registry.Snapshot()}, false);
  ASSERT_EQ(whole.find(']'), std::string::npos);
  const size_t last_line = whole.rfind('\n') + 1;
  for (size_t cut = last_line; cut <= whole.size(); ++cut) {
    SCOPED_TRACE(testing::Message() << "cut at byte " << cut);
    const auto tick = LastMetrics(whole.substr(0, cut));
    ASSERT_TRUE(tick.ok()) << tick.status().ToString();
    EXPECT_EQ(tick->Value("whatif.optimizer_calls"),
              cut == whole.size() ? 2.0 : 1.0);
    EXPECT_NE(MetricsReport(tick.value()).find("what-if: "),
              std::string::npos);
  }
}

// ---- bench RSS gate ----

TEST(TracecatBenchRss, PassesWithinToleranceAndOnShrink) {
  auto record = [](uint64_t rss) {
    BenchRecord r;
    r.git_rev = "abc1234";
    r.peak_rss_bytes = rss;
    return r;
  };
  // +5% growth under the +10% default.
  EXPECT_TRUE(
      CheckBenchRss({record(100 << 20), record(105 << 20)}, 10.0).ok());
  // Shrinking is never a regression, whatever the tolerance.
  EXPECT_TRUE(CheckBenchRss({record(100 << 20), record(50 << 20)}, 0.0).ok());
  // Single record or unsupported platform (rss 0): nothing to compare.
  EXPECT_TRUE(CheckBenchRss({record(100 << 20)}, 10.0).ok());
  EXPECT_TRUE(CheckBenchRss({record(0), record(100 << 20)}, 10.0).ok());
}

TEST(TracecatBenchRss, FailsPastToleranceFirstToLast) {
  auto record = [](uint64_t rss) {
    BenchRecord r;
    r.git_rev = "abc1234";
    r.peak_rss_bytes = rss;
    return r;
  };
  const Status grown =
      CheckBenchRss({record(100 << 20), record(125 << 20)}, 10.0);
  EXPECT_FALSE(grown.ok());
  EXPECT_NE(grown.ToString().find("+25.0%"), std::string::npos);
  // The gate compares first -> last; a middle spike that settles passes.
  EXPECT_TRUE(CheckBenchRss(
                  {record(100 << 20), record(150 << 20), record(105 << 20)},
                  10.0)
                  .ok());
  // A tighter tolerance catches the same delta.
  EXPECT_FALSE(
      CheckBenchRss({record(100 << 20), record(105 << 20)}, 2.0).ok());
}

// ---- sampling profiles ----

/// A trace file in obs::Tracer's layout whose profile event was written by
/// hand: 200 samples at 100 Hz, 2.5 s into the run.
std::string SampleProfileTrace() {
  std::string out = "[\n";
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"bench_fig2_scalability\","
         "\"schema\":\"isum-events-v2\"}},\n";
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"profile\","
         "\"ts\":2500000.000,\"args\":{\"sample_hz\":100,\"samples\":200,"
         "\"dropped\":3,\"attributed\":190,\"stacks\":["
         "{\"phase\":\"compress/greedy-pick\",\"frames\":[\"main\","
         "\"Greedy\",\"isum::core::Score\"],\"count\":120},"
         "{\"phase\":\"whatif/optimize\",\"frames\":[\"main\","
         "\"Optimize\"],\"count\":40},"
         "{\"phase\":\"compress/greedy-pick\",\"frames\":[\"main\","
         "\"Greedy\"],\"count\":30},"
         "{\"phase\":\"\",\"frames\":[\"main\"],\"count\":10}]}},\n";
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"main\"}}\n";
  out += "]\n";
  return out;
}

/// The profile of SampleProfileTrace(), which must parse.
ProfileRecord SampleProfile() {
  auto parsed = ParseProfile(SampleProfileTrace());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : ProfileRecord();
}

TEST(TracecatProfile, ParsesFullRecord) {
  const ProfileRecord r = SampleProfile();
  EXPECT_EQ(r.label, "bench_fig2_scalability");
  EXPECT_DOUBLE_EQ(r.wall_seconds, 2.5);
  EXPECT_EQ(r.dump.sample_hz, 100);
  EXPECT_EQ(r.dump.samples, 200u);
  EXPECT_EQ(r.dump.dropped, 3u);
  EXPECT_EQ(r.dump.attributed, 190u);
  EXPECT_DOUBLE_EQ(r.attributed_percent, 95.0);
  ASSERT_EQ(r.dump.stacks.size(), 4u);
  EXPECT_EQ(r.dump.stacks[0].frames,
            (std::vector<std::string>{"main", "Greedy", "isum::core::Score"}));
  // The phase table sums the two greedy-pick stacks.
  ASSERT_EQ(r.phases.size(), 3u);
  EXPECT_EQ(r.phases[0].name, "compress/greedy-pick");
  EXPECT_EQ(r.phases[0].samples, 150u);
  EXPECT_DOUBLE_EQ(r.phases[0].percent, 75.0);
  EXPECT_EQ(r.phases[2].name, "(unattributed)");
  // Frames by self samples; total counts every stack holding the frame.
  ASSERT_EQ(r.frames.size(), 4u);
  EXPECT_EQ(r.frames[0].name, "isum::core::Score");
  EXPECT_EQ(r.frames[0].self, 120u);
  EXPECT_EQ(r.frames[0].total, 120u);
  EXPECT_EQ(r.frames[2].name, "Greedy");
  EXPECT_EQ(r.frames[2].total, 150u);
  EXPECT_EQ(r.frames[3].name, "main");
  EXPECT_EQ(r.frames[3].total, 200u);
}

TEST(TracecatProfile, RoundTripsEmitterOutput) {
  obs::ProfileDump dump;
  dump.sample_hz = 500;
  dump.samples = 4;
  dump.attributed = 3;
  dump.stacks.push_back(
      obs::ProfileStack{"compress/greedy-pick", {"main", "Greedy"}, 3});
  dump.stacks.push_back(obs::ProfileStack{"", {"main"}, 1});
  const std::string path = testing::TempDir() + "/tracecat_profile.json";
  obs::Tracer& tracer = obs::Tracer::Global();
  ASSERT_TRUE(tracer.Open(path, "smoke"));
  EXPECT_TRUE(tracer.WriteProfile(dump));
  EXPECT_TRUE(tracer.Close().ok);
  StatusOr<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  const auto parsed = ParseProfile(*content);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->label, "smoke");
  EXPECT_EQ(parsed->dump.sample_hz, 500);
  EXPECT_EQ(parsed->dump.samples, 4u);
  EXPECT_EQ(parsed->dump.attributed, 3u);
  ASSERT_EQ(parsed->dump.stacks.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(parsed->dump.stacks[i].phase, dump.stacks[i].phase);
    EXPECT_EQ(parsed->dump.stacks[i].frames, dump.stacks[i].frames);
    EXPECT_EQ(parsed->dump.stacks[i].count, dump.stacks[i].count);
  }
  ASSERT_EQ(parsed->phases.size(), 2u);
  EXPECT_EQ(parsed->phases[0].name, "compress/greedy-pick");
  const auto checked = CheckProfile(*parsed, 70.0);
  EXPECT_TRUE(checked.ok()) << checked.status().ToString();
}

TEST(TracecatProfile, RejectsSchemaInvalidInput) {
  auto with = [](const std::string& from, const std::string& to) {
    std::string trace = SampleProfileTrace();
    const size_t at = trace.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) trace.replace(at, from.size(), to);
    return trace;
  };
  // A field of the wrong type, a missing one, a frame that is not a
  // string, stacks that are not an array, an unknown key, the allocation
  // totals that builds with allocation accounting wrote, no args.
  for (const std::string& trace :
       {with("\"samples\":200", "\"samples\":\"200\""),
        with("\"sample_hz\":100,", ""),
        with("\"count\":120", "\"count\":\"x\""),
        with("[\"main\",\"Greedy\",", "[7,\"Greedy\","),
        with("\"stacks\":[", "\"stacks\":7,\"x\":["),
        with("\"dropped\":3,", "\"mystery\":1,\"dropped\":3,"),
        with("\"stacks\":[", "\"alloc_total_bytes\":4096,\"stacks\":["),
        with(",\"args\":{\"sample_hz\"", ",\"x\":{\"sample_hz\"")}) {
    const auto parsed = ParseProfile(trace);
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().code(), StatusCode::kNotFound)
        << parsed.status().ToString();
  }
  EXPECT_FALSE(ParseProfile("not a trace\n").ok());
}

TEST(TracecatProfile, SingleLineRecordParsesLikeTheEmitterLayout) {
  const std::string emitted = SampleProfileTrace();
  const auto a = ParseProfile(emitted);
  const auto b = ParseProfile(OnOneLine(emitted));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->dump.samples, b->dump.samples);
  EXPECT_EQ(a->dump.attributed, b->dump.attributed);
  // The report and the collapsed stacks render every remaining field.
  EXPECT_EQ(ProfileReport(*a, 100), ProfileReport(*b, 100));
  EXPECT_EQ(CollapsedStacks(*a), CollapsedStacks(*b));
}

TEST(TracecatProfile, ReadsUnclosedTraceWithTornLastLine) {
  // A run killed after the profile event, mid-way through a span line.
  std::string killed = SampleProfileTrace();
  killed.resize(killed.find("{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                            "\"name\":\"thread_name\""));
  killed += "{\"ph\":\"X\",\"pid\":1,\"ti";
  const auto parsed = ParseProfile(killed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->label, "bench_fig2_scalability");
  EXPECT_EQ(ProfileReport(*parsed, 10), ProfileReport(SampleProfile(), 10));
  // Cut inside the profile line itself, the profile is lost, not misread.
  std::string torn = SampleProfileTrace();
  torn.resize(torn.find("\"stacks\""));
  EXPECT_EQ(ParseProfile(torn).status().code(), StatusCode::kNotFound);
}

TEST(TracecatProfile, TraceWithoutProfileEventIsNotFound) {
  const auto parsed =
      ParseProfile(TraceWithTicks({obs::MetricsRegistry().Snapshot()}, true));
  EXPECT_EQ(parsed.status().code(), StatusCode::kNotFound)
      << parsed.status().ToString();
}

TEST(TracecatProfile, SpanAndDecisionReadersSkipTheProfileEvent) {
  const auto spans = ParseChromeTrace(SampleProfileTrace());
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  ASSERT_EQ(spans->size(), 1u);
  EXPECT_EQ((*spans)[0].name, "thread_name");
  const auto journal = ParseJournal(SampleProfileTrace());
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal->label, "bench_fig2_scalability");
  EXPECT_TRUE(journal->events.empty());
}

TEST(TracecatProfile, ReportRendersPhaseAndFrameTables) {
  const std::string report = ProfileReport(SampleProfile(), 5);
  EXPECT_NE(report.find("bench_fig2_scalability"), std::string::npos);
  EXPECT_NE(report.find("200 sample(s) at 100 Hz over 2.50s wall"),
            std::string::npos);
  EXPECT_NE(report.find("95.0% attributed"), std::string::npos);
  EXPECT_NE(report.find("== per-phase samples =="), std::string::npos);
  EXPECT_NE(report.find("compress/greedy-pick"), std::string::npos);
  EXPECT_NE(report.find("(unattributed)"), std::string::npos);
  EXPECT_NE(report.find("frames by self samples"), std::string::npos);
  EXPECT_NE(report.find("isum::core::Score"), std::string::npos);
}

TEST(TracecatProfile, CheckEnforcesAttributionAndConsistency) {
  const ProfileRecord sample = SampleProfile();
  // 95% attributed: passes a 90% floor, fails a 99% floor.
  EXPECT_TRUE(CheckProfile(sample, 90.0).ok());
  const auto strict = CheckProfile(sample, 99.0);
  EXPECT_FALSE(strict.ok());
  EXPECT_NE(strict.status().ToString().find("95.0%"), std::string::npos);
  // An attributed count the stacks do not hold is caught even when the
  // floor would pass.
  ProfileRecord tampered = sample;
  tampered.dump.attributed = 199;
  EXPECT_FALSE(CheckProfile(tampered, 0.0).ok());
  // Stack counts must sum to the sample count.
  ProfileRecord short_stacks = sample;
  short_stacks.dump.stacks.pop_back();
  EXPECT_FALSE(CheckProfile(short_stacks, 0.0).ok());
  ProfileRecord bad_hz = sample;
  bad_hz.dump.sample_hz = 0;
  EXPECT_FALSE(CheckProfile(bad_hz, 0.0).ok());
}

TEST(TracecatProfile, DiffReportsShareMovements) {
  const ProfileRecord from = SampleProfile();
  ProfileRecord to = from;
  to.label = "post";
  // greedy-pick shrinks 75% -> 40%, optimize grows 20% -> 55%.
  to.phases[0].percent = 40.0;
  to.phases[1].percent = 55.0;
  to.frames[0].self = 40;  // Score: 60% -> 20% self share
  const std::string diff = ProfileDiff(from, to, 5);
  EXPECT_NE(diff.find("bench_fig2_scalability -> post"), std::string::npos);
  EXPECT_NE(diff.find("compress/greedy-pick"), std::string::npos);
  EXPECT_NE(diff.find("-35.0%"), std::string::npos);
  EXPECT_NE(diff.find("+35.0%"), std::string::npos);
  EXPECT_NE(diff.find("isum::core::Score"), std::string::npos);
  EXPECT_NE(diff.find("-40.0%"), std::string::npos);
}

TEST(TracecatReport, OmitsRobustnessSectionOnCleanRuns) {
  // Counters registered but all zero (the common fault-free run): the
  // line must not clutter the report.
  obs::MetricsRegistry registry;
  registry.GetCounter("fault.injected");
  registry.GetCounter("retry.attempts");
  registry.GetCounter("deadline.exceeded");
  EXPECT_EQ(RenderedMetrics(registry).find("robustness:"), std::string::npos);
}

}  // namespace
}  // namespace isum::tracecat
