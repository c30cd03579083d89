#include "tools/tracecat/tracecat.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "advisor/enumerator.h"
#include "common/checkpoint.h"
#include "common/deadline.h"
#include "core/checkpointing.h"
#include "common/string_util.h"
#include "obs/journal.h"
#include "obs/trace.h"

namespace isum::tracecat {

namespace {

/// Integer member `key` of `object`, saturated to Int's range (a plain cast
/// of an out-of-range double is undefined behaviour).
template <typename Int>
StatusOr<Int> IntegerField(const JsonValue& object, std::string_view key) {
  ISUM_ASSIGN_OR_RETURN(const double v, object.Number(key));
  constexpr Int kMin = std::numeric_limits<Int>::min();
  constexpr Int kMax = std::numeric_limits<Int>::max();
  if (v <= static_cast<double>(kMin)) return kMin;
  if (v >= static_cast<double>(kMax)) return kMax;
  return static_cast<Int>(v);
}

/// Reads member `key` into `*out` when present; an absent key keeps the
/// default, a present one must have the right type.
Status ReadField(const JsonValue& object, std::string_view key,
                 std::string* out) {
  if (!object.Has(key)) return Status::OK();
  ISUM_ASSIGN_OR_RETURN(*out, object.String(key));
  return Status::OK();
}

Status ReadField(const JsonValue& object, std::string_view key, double* out) {
  if (!object.Has(key)) return Status::OK();
  ISUM_ASSIGN_OR_RETURN(*out, object.Number(key));
  return Status::OK();
}

template <typename Int>
Status ReadField(const JsonValue& object, std::string_view key, Int* out) {
  if (!object.Has(key)) return Status::OK();
  ISUM_ASSIGN_OR_RETURN(*out, IntegerField<Int>(object, key));
  return Status::OK();
}

/// The array member `key`: empty when absent, an error when not an array.
StatusOr<const std::vector<JsonValue>*> ArrayField(const JsonValue& object,
                                                   std::string_view key) {
  static const std::vector<JsonValue> kEmpty;
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return &kEmpty;
  if (!value->is_array()) {
    return Status::ParseError("\"" + std::string(key) + "\" is not an array");
  }
  return &value->items;
}

/// Rejects members outside `known` (records are versioned by their schema
/// tag, so an unexpected key is a schema error, not an extension).
Status CheckKnownKeys(const JsonValue& object,
                      std::initializer_list<std::string_view> known,
                      const char* what) {
  for (const JsonMember& m : object.members) {
    if (std::find(known.begin(), known.end(), m.key) == known.end()) {
      return Status::ParseError(
          StrFormat("unknown %s key: %s", what, m.key.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<TraceEvent>> ParseChromeTrace(
    const std::string& content) {
  ISUM_ASSIGN_OR_RETURN(const JsonValue trace, ParseJson(content));
  if (!trace.is_array()) {
    return Status::ParseError("trace is not a JSON array");
  }
  std::vector<TraceEvent> events;
  for (const JsonValue& object : trace.items) {
    TraceEvent event;
    ISUM_ASSIGN_OR_RETURN(event.phase, object.String("ph"));
    // Decision events and the run's label are ParseJournal's, metrics
    // ticks LastMetrics', the profile ParseProfile's.
    if (event.phase == "i" || event.phase == "C") continue;
    const JsonValue* name = object.Find("name");
    if (event.phase == "M" && name != nullptr &&
        (name->string == "process_name" ||
         name->string == obs::kProfileEvent)) {
      continue;
    }
    ISUM_ASSIGN_OR_RETURN(event.tid, IntegerField<uint32_t>(object, "tid"));
    if (event.phase == "M") {
      const JsonValue* args = object.Find("args");
      if (args == nullptr) {
        return Status::ParseError("metadata event without args.name");
      }
      ISUM_ASSIGN_OR_RETURN(event.thread_name, args->String("name"));
      event.name = "thread_name";
    } else if (event.phase == "X") {
      ISUM_ASSIGN_OR_RETURN(event.name, object.String("name"));
      ISUM_ASSIGN_OR_RETURN(event.ts_us, object.Number("ts"));
      ISUM_ASSIGN_OR_RETURN(event.dur_us, object.Number("dur"));
    } else {
      return Status::ParseError("unsupported event phase: " + event.phase);
    }
    events.push_back(std::move(event));
  }
  return events;
}

std::vector<PhaseStat> AggregatePhases(const std::vector<TraceEvent>& events) {
  std::vector<PhaseStat> stats;
  for (const TraceEvent& e : events) {
    if (e.phase != "X") continue;
    PhaseStat* stat = nullptr;
    for (PhaseStat& s : stats) {
      if (s.name == e.name) {
        stat = &s;
        break;
      }
    }
    if (stat == nullptr) {
      stats.push_back(PhaseStat{e.name, 0, 0.0, 0.0});
      stat = &stats.back();
    }
    ++stat->count;
    stat->total_us += e.dur_us;
    stat->max_us = std::max(stat->max_us, e.dur_us);
  }
  std::sort(stats.begin(), stats.end(),
            [](const PhaseStat& a, const PhaseStat& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              return a.name < b.name;
            });
  return stats;
}

std::vector<TraceEvent> TopSlowest(const std::vector<TraceEvent>& events,
                                   size_t k) {
  std::vector<TraceEvent> spans;
  for (const TraceEvent& e : events) {
    if (e.phase == "X") spans.push_back(e);
  }
  std::sort(spans.begin(), spans.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.name < b.name;
            });
  if (spans.size() > k) spans.resize(k);
  return spans;
}

namespace {

std::string HumanUs(double us) {
  if (us >= 1e6) return StrFormat("%.2fs", us / 1e6);
  if (us >= 1e3) return StrFormat("%.2fms", us / 1e3);
  return StrFormat("%.1fus", us);
}

}  // namespace

std::string Report(const std::vector<TraceEvent>& events, size_t top_k) {
  std::string out;

  const std::vector<PhaseStat> phases = AggregatePhases(events);
  out += "== per-phase totals ==\n";
  if (phases.empty()) {
    out += "(no spans)\n";
  } else {
    out += StrFormat("%-32s %8s %12s %12s %12s\n", "phase", "count", "total",
                     "mean", "max");
    for (const PhaseStat& p : phases) {
      out += StrFormat(
          "%-32s %8llu %12s %12s %12s\n", p.name.c_str(),
          static_cast<unsigned long long>(p.count), HumanUs(p.total_us).c_str(),
          HumanUs(p.total_us / static_cast<double>(p.count)).c_str(),
          HumanUs(p.max_us).c_str());
    }
  }

  const std::vector<TraceEvent> slowest = TopSlowest(events, top_k);
  if (!slowest.empty()) {
    out += StrFormat("\n== top %zu slowest spans ==\n", slowest.size());
    out += StrFormat("%-32s %6s %14s %12s\n", "span", "tid", "start", "dur");
    for (const TraceEvent& e : slowest) {
      out += StrFormat("%-32s %6u %14s %12s\n", e.name.c_str(), e.tid,
                       HumanUs(e.ts_us).c_str(), HumanUs(e.dur_us).c_str());
    }
  }

  return out;
}

namespace {

/// One isum-bench-v1 record object. Section entries may carry extra keys
/// (isum_bench adds self_us to phases and quality fields to runs).
StatusOr<BenchRecord> ParseBenchRecord(const JsonValue& object) {
  if (!object.is_object()) {
    return Status::ParseError("bench record is not a JSON object");
  }
  if (!object.Has("schema")) {
    return Status::ParseError("bench record without schema tag");
  }
  ISUM_ASSIGN_OR_RETURN(const std::string schema, object.String("schema"));
  if (schema != "isum-bench-v1") {
    return Status::ParseError("unsupported bench schema: " + schema);
  }
  if (!object.Has("wall_seconds") || !object.Has("peak_rss_bytes")) {
    return Status::ParseError(
        "bench record missing wall_seconds/peak_rss_bytes");
  }
  ISUM_RETURN_IF_ERROR(CheckKnownKeys(
      object,
      {"schema", "label", "bench", "git_rev", "wall_seconds",
       "peak_rss_bytes", "phases", "counters", "runs"},
      "bench"));

  BenchRecord record;
  for (const Status& status : {
           ReadField(object, "label", &record.label),
           ReadField(object, "bench", &record.bench),
           ReadField(object, "git_rev", &record.git_rev),
           ReadField(object, "wall_seconds", &record.wall_seconds),
           ReadField(object, "peak_rss_bytes", &record.peak_rss_bytes),
       }) {
    if (!status.ok()) return status;
  }

  ISUM_ASSIGN_OR_RETURN(const std::vector<JsonValue>* phases,
                        ArrayField(object, "phases"));
  for (const JsonValue& entry : *phases) {
    PhaseStat phase;
    ISUM_ASSIGN_OR_RETURN(phase.name, entry.String("name"));
    ISUM_ASSIGN_OR_RETURN(phase.count, IntegerField<uint64_t>(entry, "count"));
    ISUM_ASSIGN_OR_RETURN(phase.total_us, entry.Number("total_us"));
    ISUM_ASSIGN_OR_RETURN(phase.max_us, entry.Number("max_us"));
    record.phases.push_back(std::move(phase));
  }
  ISUM_ASSIGN_OR_RETURN(const std::vector<JsonValue>* counters,
                        ArrayField(object, "counters"));
  for (const JsonValue& entry : *counters) {
    ISUM_ASSIGN_OR_RETURN(std::string name, entry.String("name"));
    ISUM_ASSIGN_OR_RETURN(const double value, entry.Number("value"));
    record.counters.emplace_back(std::move(name), value);
  }
  ISUM_ASSIGN_OR_RETURN(const std::vector<JsonValue>* runs,
                        ArrayField(object, "runs"));
  for (const JsonValue& entry : *runs) {
    ISUM_ASSIGN_OR_RETURN(std::string name, entry.String("name"));
    record.run_names.push_back(std::move(name));
  }
  return record;
}

}  // namespace

StatusOr<std::vector<BenchRecord>> ParseBenchRecords(
    const std::string& content) {
  ISUM_ASSIGN_OR_RETURN(const JsonValue doc, ParseJson(content));
  std::vector<BenchRecord> records;
  if (doc.is_array()) {
    for (const JsonValue& item : doc.items) {
      ISUM_ASSIGN_OR_RETURN(BenchRecord record, ParseBenchRecord(item));
      records.push_back(std::move(record));
    }
  } else {
    ISUM_ASSIGN_OR_RETURN(BenchRecord record, ParseBenchRecord(doc));
    records.push_back(std::move(record));
  }
  if (records.empty()) {
    return Status::ParseError("no bench records found");
  }
  return records;
}

std::string BenchDelta(const BenchRecord& from, const BenchRecord& to) {
  std::string out;
  out += StrFormat("== bench delta: %s (%s) -> %s (%s) ==\n",
                   from.label.c_str(), from.git_rev.c_str(), to.label.c_str(),
                   to.git_rev.c_str());
  out += StrFormat("%-32s %12s %12s %10s\n", "phase", "from", "to", "delta");

  // Union of phase names, `from`'s order first so the dominant phases of the
  // baseline lead the table; phases new in `to` follow in `to`'s order.
  auto find = [](const std::vector<PhaseStat>& phases,
                 const std::string& name) -> const PhaseStat* {
    for (const PhaseStat& p : phases) {
      if (p.name == name) return &p;
    }
    return nullptr;
  };
  auto row = [&](const std::string& name, const PhaseStat* a,
                 const PhaseStat* b) {
    std::string delta = "-";
    if (a != nullptr && b != nullptr && a->total_us > 0.0) {
      delta = StrFormat("%+.1f%%",
                        100.0 * (b->total_us - a->total_us) / a->total_us);
    }
    out += StrFormat("%-32s %12s %12s %10s\n", name.c_str(),
                     a != nullptr ? HumanUs(a->total_us).c_str() : "-",
                     b != nullptr ? HumanUs(b->total_us).c_str() : "-",
                     delta.c_str());
  };
  for (const PhaseStat& p : from.phases) {
    row(p.name, &p, find(to.phases, p.name));
  }
  for (const PhaseStat& p : to.phases) {
    if (find(from.phases, p.name) == nullptr) row(p.name, nullptr, &p);
  }

  std::string wall_delta;
  if (from.wall_seconds > 0.0) {
    wall_delta = StrFormat(
        " (%+.1f%%)",
        100.0 * (to.wall_seconds - from.wall_seconds) / from.wall_seconds);
  }
  out += StrFormat("wall: %.2fs -> %.2fs%s\n", from.wall_seconds,
                   to.wall_seconds, wall_delta.c_str());
  return out;
}

namespace {

std::string HumanBytes(double bytes) {
  if (bytes >= 1024.0 * 1024.0 * 1024.0) {
    return StrFormat("%.2fGiB", bytes / (1024.0 * 1024.0 * 1024.0));
  }
  if (bytes >= 1024.0 * 1024.0) {
    return StrFormat("%.1fMiB", bytes / (1024.0 * 1024.0));
  }
  if (bytes >= 1024.0) return StrFormat("%.1fKiB", bytes / 1024.0);
  return StrFormat("%.0fB", bytes);
}

}  // namespace

Status CheckBenchRss(const std::vector<BenchRecord>& records,
                     double tolerance_percent) {
  if (records.size() < 2) return Status::OK();
  const BenchRecord& from = records.front();
  const BenchRecord& to = records.back();
  if (from.peak_rss_bytes == 0) return Status::OK();
  const double growth_percent =
      100.0 * (static_cast<double>(to.peak_rss_bytes) -
               static_cast<double>(from.peak_rss_bytes)) /
      static_cast<double>(from.peak_rss_bytes);
  if (growth_percent > tolerance_percent) {
    return Status::InvalidArgument(StrFormat(
        "peak RSS regression: %s (%s) -> %s (%s) is %+.1f%%, tolerance "
        "+%.1f%%",
        HumanBytes(static_cast<double>(from.peak_rss_bytes)).c_str(),
        from.git_rev.c_str(),
        HumanBytes(static_cast<double>(to.peak_rss_bytes)).c_str(),
        to.git_rev.c_str(), growth_percent, tolerance_percent));
  }
  return Status::OK();
}

// ---- decision events ----

StatusOr<double> JournalEvent::Number(const std::string& key) const {
  return args.Number(key);
}

StatusOr<std::string> JournalEvent::String(const std::string& key) const {
  return args.String(key);
}

bool JournalEvent::Has(const std::string& key) const { return args.Has(key); }

namespace {

/// The array elements of a trace file. One that Tracer::Close() never
/// finished is read line by line: "[" on the first line, then one event per
/// line, each but the last followed by a comma. A last line that does not
/// parse was cut off mid-write; it is dropped and `*torn_tail` says why.
/// `*closed` is whether the closing ']' is there.
StatusOr<std::vector<JsonValue>> ReadTraceItems(const std::string& content,
                                                bool* closed,
                                                std::string* torn_tail) {
  auto whole = ParseJson(content);
  if (whole.ok() && whole->is_array()) {
    *closed = true;
    return std::move(whole->items);
  }
  std::vector<std::string> lines = Split(content, '\n');
  for (std::string& line : lines) line = std::string(Trim(line));
  size_t last = lines.size();
  while (last > 0 && lines[last - 1].empty()) --last;
  if (last == 0 || lines[0] != "[") {
    return Status::ParseError("trace does not start with a '[' line");
  }
  std::vector<JsonValue> items;
  for (size_t i = 1; i < last; ++i) {
    std::string_view line = lines[i];
    if (line.empty()) continue;
    if (line == "]" && i + 1 == last) {
      *closed = true;
      break;
    }
    if (line.back() == ',') line.remove_suffix(1);
    auto item = ParseJson(line);
    if (!item.ok()) {
      if (i + 1 == last) {
        *torn_tail = item.status().message();
        break;
      }
      return Status::ParseError(StrFormat(
          "line %zu: %s", i + 1, item.status().message().c_str()));
    }
    items.push_back(std::move(item).value());
  }
  return items;
}

}  // namespace

StatusOr<Journal> ParseJournal(const std::string& content) {
  Journal journal;
  ISUM_ASSIGN_OR_RETURN(
      const std::vector<JsonValue> items,
      ReadTraceItems(content, &journal.closed, &journal.torn_tail));
  for (size_t i = 0; i < items.size(); ++i) {
    const JsonValue& item = items[i];
    ISUM_ASSIGN_OR_RETURN(const std::string phase, item.String("ph"));
    ISUM_ASSIGN_OR_RETURN(std::string name, item.String("name"));
    const JsonValue* args = item.Find("args");
    if (phase == "M" && name == "process_name" && i == 0) {
      if (args == nullptr) {
        return Status::ParseError("process_name event without args");
      }
      ISUM_RETURN_IF_ERROR(ReadField(*args, "name", &journal.label));
      ISUM_RETURN_IF_ERROR(ReadField(*args, "schema", &journal.schema));
    } else if (phase == "i") {
      if (args == nullptr || !args->is_object()) {
        return Status::ParseError("instant event " + name + " without args");
      }
      JournalEvent e;
      e.event = std::move(name);
      ISUM_ASSIGN_OR_RETURN(e.seq, IntegerField<uint64_t>(*args, "seq"));
      ISUM_ASSIGN_OR_RETURN(e.t_us, item.Number("ts"));
      e.args = *args;
      journal.events.push_back(std::move(e));
    }
  }
  if (items.empty()) return Status::ParseError("empty trace");
  return journal;
}

namespace {

/// The decision-event vocabulary: every event type obs/journal.h emits and
/// the fields it must carry (its emitters are the single producer).
struct EventSpec {
  const char* event;
  const char* fields[7];
};

constexpr EventSpec kEventSpecs[] = {
    {"compress_begin", {"n", "k", "algorithm"}},
    {"select", {"round", "query", "benefit", "gap", "eligible"}},
    {"feature_reset", {"selected"}},
    {"compress_end", {"selected", "selection_hash", "benefit_sum",
                      "stop_reason"}},
    {"enum_round", {"round", "candidates", "best_index", "improvement",
                    "cache_hits", "optimizer_calls", "skipped"}},
    {"enum_end", {"indexes", "initial_cost", "final_cost", "stop_reason"}},
    {"retry", {"site", "attempt", "backoff_us"}},
    {"fault", {"site", "code"}},
    {"budget_tick", {"remaining_s"}},
    {"budget_stop", {"reason"}},
    {"ckpt_write", {"phase", "epoch", "rounds", "bytes"}},
    {"ckpt_restore", {"phase", "epoch", "restored", "prefix_hash", "done"}},
    {"attribution", {"query", "weight", "estimated", "realized"}},
    {"pipeline_end", {"algorithm", "k", "improvement_percent",
                      "stop_reason"}},
};

const EventSpec* FindEventSpec(const std::string& event) {
  for (const EventSpec& spec : kEventSpecs) {
    if (event == spec.event) return &spec;
  }
  return nullptr;
}

/// The obs::SelectionOrderHash FNV-1a constants, needed here in incremental
/// form: a resumed run records only the post-restore select events, so
/// the verifier seeds the hash state from the ckpt_restore record's
/// prefix_hash instead of replaying the whole order.
constexpr uint64_t kSelectionHashOffset = 1469598103934665603ull;
constexpr uint64_t kSelectionHashPrime = 1099511628211ull;

uint64_t ExtendSelectionHash(uint64_t h, const std::vector<size_t>& order) {
  for (const size_t id : order) {
    h ^= static_cast<uint64_t>(id);
    h *= kSelectionHashPrime;
  }
  return h;
}

/// Compares an (incrementally) recomputed selection hash against the
/// compress_end record's selection_hash.
Status VerifySelectionHash(uint64_t recomputed,
                           const JournalEvent& end_event) {
  auto recorded = end_event.String("selection_hash");
  if (!recorded.ok()) return recorded.status();
  const uint64_t stored =
      std::strtoull(recorded.value().c_str(), nullptr, 16);
  if (recomputed != stored) {
    return Status::ParseError(StrFormat(
        "selection hash mismatch at seq %llu: recorded %s, recomputed %016llx",
        static_cast<unsigned long long>(end_event.seq),
        recorded.value().c_str(),
        static_cast<unsigned long long>(recomputed)));
  }
  return Status::OK();
}

}  // namespace

StatusOr<size_t> CheckJournal(const Journal& journal) {
  if (!journal.torn_tail.empty()) {
    return Status::ParseError("torn last line (killed run?): " +
                              journal.torn_tail);
  }
  if (!journal.closed) {
    return Status::ParseError("trace not closed: no final ']' (killed run?)");
  }
  if (journal.schema != obs::kDecisionSchema) {
    return Status::ParseError(
        "no leading process_name event with schema " +
        std::string(obs::kDecisionSchema) + " (got \"" + journal.schema +
        "\")");
  }
  const std::vector<JournalEvent>& events = journal.events;

  bool in_compress = false;
  uint64_t sel_hash = kSelectionHashOffset;
  uint64_t sel_count = 0;
  uint64_t expected_round = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const JournalEvent& e = events[i];
    if (e.seq != i) {
      return Status::ParseError(StrFormat(
          "non-dense seq: expected %zu, got %llu (damaged trace?)", i,
          static_cast<unsigned long long>(e.seq)));
    }
    const EventSpec* spec = FindEventSpec(e.event);
    if (spec == nullptr) {
      return Status::ParseError("unknown event type: " + e.event);
    }
    for (const char* field : spec->fields) {
      if (field == nullptr) break;
      if (!e.Has(field)) {
        return Status::ParseError(
            StrFormat("event %s (seq %llu) missing field \"%s\"",
                      e.event.c_str(),
                      static_cast<unsigned long long>(e.seq), field));
      }
    }
    if (e.event == "compress_begin") {
      if (in_compress) {
        return Status::ParseError("nested compress_begin at seq " +
                                  StrFormat("%llu", (unsigned long long)e.seq));
      }
      in_compress = true;
      sel_hash = kSelectionHashOffset;
      sel_count = 0;
      expected_round = 0;
    } else if (e.event == "ckpt_restore") {
      auto phase = e.String("phase");
      if (!phase.ok()) return phase.status();
      if (phase.value() == "compress") {
        // A resumed compression block: the trace carries only the
        // post-restore select events, so seed the incremental hash state
        // from the restored prefix.
        if (!in_compress) {
          return Status::ParseError(
              "compress ckpt_restore outside a compression block");
        }
        if (sel_count != 0) {
          return Status::ParseError(
              "ckpt_restore after select events in the same block");
        }
        auto restored = e.Number("restored");
        if (!restored.ok()) return restored.status();
        auto prefix = e.String("prefix_hash");
        if (!prefix.ok()) return prefix.status();
        sel_count = static_cast<uint64_t>(restored.value());
        expected_round = sel_count;
        sel_hash = std::strtoull(prefix.value().c_str(), nullptr, 16);
      }
    } else if (e.event == "select") {
      if (!in_compress) {
        return Status::ParseError("select outside a compression block");
      }
      auto round = e.Number("round");
      if (!round.ok()) return round.status();
      if (static_cast<uint64_t>(round.value()) != expected_round) {
        return Status::ParseError(StrFormat(
            "non-contiguous selection rounds: expected %llu, got %.0f",
            static_cast<unsigned long long>(expected_round), round.value()));
      }
      ++expected_round;
      auto query = e.Number("query");
      if (!query.ok()) return query.status();
      sel_hash ^= static_cast<uint64_t>(query.value());
      sel_hash *= kSelectionHashPrime;
      ++sel_count;
    } else if (e.event == "compress_end") {
      if (!in_compress) {
        return Status::ParseError("compress_end without compress_begin");
      }
      auto selected = e.Number("selected");
      if (!selected.ok()) return selected.status();
      if (static_cast<uint64_t>(selected.value()) != sel_count) {
        return Status::ParseError(StrFormat(
            "compress_end claims %.0f selections but block has %llu",
            selected.value(), static_cast<unsigned long long>(sel_count)));
      }
      const Status hash = VerifySelectionHash(sel_hash, e);
      if (!hash.ok()) return hash;
      in_compress = false;
    }
  }
  if (in_compress) {
    return Status::ParseError("unterminated compression block");
  }
  return events.size();
}

namespace {

/// Everything ExplainJournal accumulates for one compression block.
struct CompressBlock {
  std::string algorithm = "?";
  uint64_t n = 0;
  uint64_t k = 0;
  std::vector<const JournalEvent*> selects;
  std::vector<size_t> order;
  std::vector<uint64_t> reset_rounds;  ///< selected-so-far at each reset
  const JournalEvent* end = nullptr;
  /// Checkpoint-resume seed: the restored prefix's hash state and length
  /// (kSelectionHashOffset/0 for a from-scratch block).
  uint64_t seed_hash = kSelectionHashOffset;
  uint64_t restored = 0;
  bool resumed = false;
};

std::string HumanGap(double gap) {
  return gap < 0.0 ? std::string("(none)") : StrFormat("%.6g", gap);
}

}  // namespace

StatusOr<std::string> ExplainJournal(const Journal& journal, size_t top_k) {
  const std::vector<JournalEvent>& events = journal.events;

  // One pass groups the stream: compression blocks, enumeration rounds,
  // attribution rows, fault/retry/budget timelines.
  std::vector<CompressBlock> blocks;
  CompressBlock* open_block = nullptr;
  std::vector<const JournalEvent*> enum_rounds;
  std::vector<const JournalEvent*> enum_ends;
  std::vector<const JournalEvent*> attributions;
  std::vector<const JournalEvent*> incidents;  ///< retry/fault/budget_stop
  std::vector<const JournalEvent*> ticks;
  std::vector<const JournalEvent*> ckpt_events;
  const JournalEvent* pipeline_end = nullptr;
  for (const JournalEvent& e : events) {
    if (e.event == "compress_begin") {
      blocks.emplace_back();
      open_block = &blocks.back();
      auto algorithm = e.String("algorithm");
      if (algorithm.ok()) open_block->algorithm = algorithm.value();
      auto n = e.Number("n");
      if (n.ok()) open_block->n = static_cast<uint64_t>(n.value());
      auto k = e.Number("k");
      if (k.ok()) open_block->k = static_cast<uint64_t>(k.value());
    } else if (e.event == "select") {
      if (open_block == nullptr) {
        return Status::ParseError("select outside a compression block");
      }
      auto query = e.Number("query");
      if (!query.ok()) return query.status();
      open_block->selects.push_back(&e);
      open_block->order.push_back(static_cast<size_t>(query.value()));
    } else if (e.event == "feature_reset") {
      if (open_block != nullptr) {
        auto selected = e.Number("selected");
        open_block->reset_rounds.push_back(
            selected.ok() ? static_cast<uint64_t>(selected.value()) : 0);
      }
    } else if (e.event == "compress_end") {
      if (open_block == nullptr) {
        return Status::ParseError("compress_end without compress_begin");
      }
      open_block->end = &e;
      open_block = nullptr;
    } else if (e.event == "enum_round") {
      enum_rounds.push_back(&e);
    } else if (e.event == "enum_end") {
      enum_ends.push_back(&e);
    } else if (e.event == "attribution") {
      attributions.push_back(&e);
    } else if (e.event == "retry" || e.event == "fault" ||
               e.event == "budget_stop") {
      incidents.push_back(&e);
    } else if (e.event == "budget_tick") {
      ticks.push_back(&e);
    } else if (e.event == "ckpt_write" || e.event == "ckpt_restore") {
      ckpt_events.push_back(&e);
      if (e.event == "ckpt_restore" && open_block != nullptr) {
        auto phase = e.String("phase");
        if (phase.ok() && phase.value() == "compress") {
          open_block->resumed = true;
          auto restored = e.Number("restored");
          if (restored.ok()) {
            open_block->restored = static_cast<uint64_t>(restored.value());
          }
          auto prefix = e.String("prefix_hash");
          if (prefix.ok()) {
            open_block->seed_hash =
                std::strtoull(prefix.value().c_str(), nullptr, 16);
          }
        }
      }
    } else if (e.event == "pipeline_end") {
      pipeline_end = &e;
    }
  }

  std::string out;
  out += StrFormat("== journal: %s (%zu events%s) ==\n",
                   journal.label.c_str(), events.size(),
                   journal.closed ? "" : ", NOT cleanly closed: no final ']'");
  if (!journal.torn_tail.empty()) {
    out += "torn last line dropped: " + journal.torn_tail + "\n";
  }

  for (size_t b = 0; b < blocks.size(); ++b) {
    const CompressBlock& block = blocks[b];
    std::string stop_reason = "?";
    double benefit_sum = 0.0;
    std::string hash_note = "compress_end missing (truncated block)";
    if (block.end != nullptr) {
      auto reason = block.end->String("stop_reason");
      if (reason.ok()) stop_reason = reason.value();
      auto sum = block.end->Number("benefit_sum");
      if (sum.ok()) benefit_sum = sum.value();
      const Status hash = VerifySelectionHash(
          ExtendSelectionHash(block.seed_hash, block.order), *block.end);
      if (hash.ok()) {
        auto recorded = block.end->String("selection_hash");
        hash_note = StrFormat("%s (recomputed: match)",
                              recorded.ok() ? recorded.value().c_str() : "?");
      } else {
        hash_note = hash.ToString();
      }
    }
    out += StrFormat(
        "\n== compression %zu/%zu: %s, n=%llu -> k=%llu, %s ==\n",
        b + 1, blocks.size(), block.algorithm.c_str(),
        static_cast<unsigned long long>(block.n),
        static_cast<unsigned long long>(block.k), stop_reason.c_str());
    out += StrFormat("selected %zu, estimated benefit sum %.6g\n",
                     static_cast<size_t>(block.restored) + block.order.size(),
                     benefit_sum);
    if (block.resumed) {
      out += StrFormat(
          "resumed from checkpoint: %llu round(s) restored, %zu run live\n",
          static_cast<unsigned long long>(block.restored),
          block.order.size());
    }
    out += StrFormat("selection hash: %s\n", hash_note.c_str());
    if (!block.reset_rounds.empty()) {
      out += "feature resets after:";
      for (const uint64_t r : block.reset_rounds) {
        out += StrFormat(" %llu", static_cast<unsigned long long>(r));
      }
      out += " selected\n";
    }
    out += "selection order:";
    const size_t shown = std::min<size_t>(block.order.size(), 20);
    for (size_t i = 0; i < shown; ++i) {
      out += StrFormat(" %zu", block.order[i]);
    }
    if (shown < block.order.size()) {
      out += StrFormat(" ... (%zu more)", block.order.size() - shown);
    }
    out += "\n";

    // Contested rounds: smallest winning margin first — the decisions most
    // sensitive to featurization/weighting changes.
    std::vector<const JournalEvent*> contested = block.selects;
    auto gap_of = [](const JournalEvent* e) {
      auto gap = e->Number("gap");
      return gap.ok() ? gap.value() : -1.0;
    };
    std::stable_sort(contested.begin(), contested.end(),
                     [&](const JournalEvent* a, const JournalEvent* c) {
                       const double ga = gap_of(a);
                       const double gc = gap_of(c);
                       // Rounds without a runner-up (gap < 0) sort last.
                       if ((ga < 0.0) != (gc < 0.0)) return gc < 0.0;
                       return ga < gc;
                     });
    if (contested.size() > top_k) contested.resize(top_k);
    if (!contested.empty()) {
      out += StrFormat("top %zu contested rounds (smallest winning margin):\n",
                       contested.size());
      out += StrFormat("%8s %10s %12s %12s %9s\n", "round", "query",
                       "benefit", "margin", "eligible");
      for (const JournalEvent* e : contested) {
        auto round = e->Number("round");
        auto query = e->Number("query");
        auto benefit = e->Number("benefit");
        auto eligible = e->Number("eligible");
        out += StrFormat(
            "%8.0f %10.0f %12.6g %12s %9.0f\n",
            round.ok() ? round.value() : -1.0,
            query.ok() ? query.value() : -1.0,
            benefit.ok() ? benefit.value() : 0.0,
            HumanGap(gap_of(e)).c_str(),
            eligible.ok() ? eligible.value() : 0.0);
      }
    }
  }

  if (!enum_rounds.empty() || !enum_ends.empty()) {
    out += StrFormat("\n== enumeration: %zu round(s) ==\n",
                     enum_rounds.size());
    if (!enum_rounds.empty()) {
      out += StrFormat("%8s %11s %11s %12s %11s %10s %10s\n", "round",
                       "candidates", "picked", "improvement", "cache_hits",
                       "opt_calls", "skipped");
      for (const JournalEvent* e : enum_rounds) {
        auto round = e->Number("round");
        auto candidates = e->Number("candidates");
        auto best = e->Number("best_index");
        auto improvement = e->Number("improvement");
        auto hits = e->Number("cache_hits");
        auto calls = e->Number("optimizer_calls");
        auto skipped = e->Number("skipped");
        out += StrFormat(
            "%8.0f %11.0f %11.0f %12.6g %11.0f %10.0f %10.0f\n",
            round.ok() ? round.value() : -1.0,
            candidates.ok() ? candidates.value() : 0.0,
            best.ok() ? best.value() : -1.0,
            improvement.ok() ? improvement.value() : 0.0,
            hits.ok() ? hits.value() : 0.0, calls.ok() ? calls.value() : 0.0,
            skipped.ok() ? skipped.value() : 0.0);
      }
    }
    for (const JournalEvent* e : enum_ends) {
      auto indexes = e->Number("indexes");
      auto initial = e->Number("initial_cost");
      auto final_cost = e->Number("final_cost");
      auto reason = e->String("stop_reason");
      const double c0 = initial.ok() ? initial.value() : 0.0;
      const double c1 = final_cost.ok() ? final_cost.value() : 0.0;
      out += StrFormat(
          "enumerated %0.f index(es): cost %.6g -> %.6g (%.1f%%), %s\n",
          indexes.ok() ? indexes.value() : 0.0, c0, c1,
          c0 > 0.0 ? 100.0 * (c0 - c1) / c0 : 0.0,
          reason.ok() ? reason.value().c_str() : "?");
    }
  }

  if (!attributions.empty()) {
    out += StrFormat(
        "\n== benefit attribution (%zu selected queries) ==\n",
        attributions.size());
    out += StrFormat("%10s %10s %12s %12s %10s\n", "query", "weight",
                     "estimated", "realized", "rank_err");
    // Rank error: |rank by estimated - rank by realized| per query — unit
    // free, so it works even though the estimate (similarity benefit) and
    // the realization (cost delta) have different scales.
    std::vector<size_t> by_est(attributions.size());
    std::vector<size_t> by_real(attributions.size());
    for (size_t i = 0; i < attributions.size(); ++i) by_est[i] = by_real[i] = i;
    auto num_of = [&](size_t i, const char* key) {
      auto v = attributions[i]->Number(key);
      return v.ok() ? v.value() : 0.0;
    };
    std::stable_sort(by_est.begin(), by_est.end(), [&](size_t a, size_t c) {
      return num_of(a, "estimated") > num_of(c, "estimated");
    });
    std::stable_sort(by_real.begin(), by_real.end(), [&](size_t a, size_t c) {
      return num_of(a, "realized") > num_of(c, "realized");
    });
    std::vector<size_t> est_rank(attributions.size());
    std::vector<size_t> real_rank(attributions.size());
    for (size_t r = 0; r < by_est.size(); ++r) est_rank[by_est[r]] = r;
    for (size_t r = 0; r < by_real.size(); ++r) real_rank[by_real[r]] = r;
    double total_rank_err = 0.0;
    for (size_t i = 0; i < attributions.size(); ++i) {
      const double rank_err =
          est_rank[i] >= real_rank[i]
              ? static_cast<double>(est_rank[i] - real_rank[i])
              : static_cast<double>(real_rank[i] - est_rank[i]);
      total_rank_err += rank_err;
      out += StrFormat("%10.0f %10.4g %12.6g %12.6g %10.0f\n",
                       num_of(i, "query"), num_of(i, "weight"),
                       num_of(i, "estimated"), num_of(i, "realized"),
                       rank_err);
    }
    out += StrFormat("mean rank error: %.2f over %zu queries\n",
                     total_rank_err / static_cast<double>(attributions.size()),
                     attributions.size());
  }

  if (!incidents.empty()) {
    out += StrFormat("\n== fault/retry timeline (%zu) ==\n", incidents.size());
    for (const JournalEvent* e : incidents) {
      if (e->event == "retry") {
        auto site = e->String("site");
        auto attempt = e->Number("attempt");
        auto backoff = e->Number("backoff_us");
        out += StrFormat("%14.3fus  retry %s attempt %.0f (backoff %s)\n",
                         e->t_us,
                         site.ok() ? site.value().c_str() : "?",
                         attempt.ok() ? attempt.value() : 0.0,
                         HumanUs(backoff.ok() ? backoff.value() : 0.0).c_str());
      } else if (e->event == "fault") {
        auto site = e->String("site");
        auto code = e->String("code");
        out += StrFormat("%14.3fus  FAULT %s surfaced %s\n", e->t_us,
                         site.ok() ? site.value().c_str() : "?",
                         code.ok() ? code.value().c_str() : "?");
      } else {
        auto reason = e->String("reason");
        out += StrFormat("%14.3fus  budget stop: %s\n", e->t_us,
                         reason.ok() ? reason.value().c_str() : "?");
      }
    }
  }

  if (!ckpt_events.empty()) {
    out += StrFormat("\n== checkpoints (%zu) ==\n", ckpt_events.size());
    for (const JournalEvent* e : ckpt_events) {
      auto phase = e->String("phase");
      auto epoch = e->Number("epoch");
      if (e->event == "ckpt_write") {
        auto rounds = e->Number("rounds");
        auto bytes = e->Number("bytes");
        out += StrFormat(
            "%14.3fus  wrote %s epoch %.0f (%.0f round(s), %.0f bytes)\n",
            e->t_us, phase.ok() ? phase.value().c_str() : "?",
            epoch.ok() ? epoch.value() : -1.0,
            rounds.ok() ? rounds.value() : 0.0,
            bytes.ok() ? bytes.value() : 0.0);
      } else {
        auto restored = e->Number("restored");
        auto done = e->Number("done");
        out += StrFormat(
            "%14.3fus  resumed %s from epoch %.0f (%.0f round(s)%s)\n",
            e->t_us, phase.ok() ? phase.value().c_str() : "?",
            epoch.ok() ? epoch.value() : -1.0,
            restored.ok() ? restored.value() : 0.0,
            done.ok() && done.value() != 0.0 ? ", already complete" : "");
      }
    }
  }

  if (!ticks.empty()) {
    auto first = ticks.front()->Number("remaining_s");
    auto last = ticks.back()->Number("remaining_s");
    out += StrFormat(
        "\n== budget ==\n%zu consumption tick(s): %.3fs -> %.3fs remaining\n",
        ticks.size(), first.ok() ? first.value() : 0.0,
        last.ok() ? last.value() : 0.0);
  }

  if (pipeline_end != nullptr) {
    auto algorithm = pipeline_end->String("algorithm");
    auto k = pipeline_end->Number("k");
    auto improvement = pipeline_end->Number("improvement_percent");
    auto reason = pipeline_end->String("stop_reason");
    out += StrFormat(
        "\n== pipeline: %s k=%.0f improvement %.2f%% (%s) ==\n",
        algorithm.ok() ? algorithm.value().c_str() : "?",
        k.ok() ? k.value() : 0.0,
        improvement.ok() ? improvement.value() : 0.0,
        reason.ok() ? reason.value().c_str() : "?");
  }
  return out;
}

// ---- metrics ticks ----

double MetricsTick::Value(std::string_view name, double fallback) const {
  const JsonValue* value = values.Find(name);
  return value != nullptr ? value->number : fallback;
}

StatusOr<MetricsTick> LastMetrics(const std::string& content) {
  bool closed = false;
  std::string torn_tail;
  ISUM_ASSIGN_OR_RETURN(const std::vector<JsonValue> items,
                        ReadTraceItems(content, &closed, &torn_tail));
  for (auto it = items.rbegin(); it != items.rend(); ++it) {
    const JsonValue* phase = it->Find("ph");
    const JsonValue* name = it->Find("name");
    if (phase == nullptr || phase->string != "C" || name == nullptr ||
        name->string != obs::kMetricsEvent) {
      continue;
    }
    MetricsTick tick;
    ISUM_ASSIGN_OR_RETURN(tick.t_us, it->Number("ts"));
    const JsonValue* args = it->Find("args");
    if (args == nullptr || !args->is_object()) {
      return Status::ParseError("metrics event without args");
    }
    for (const JsonMember& m : args->members) {
      if (m.value.type != JsonValue::Type::kNumber) {
        return Status::ParseError("metrics value is not a number: " + m.key);
      }
    }
    tick.values = *args;
    return tick;
  }
  return Status::NotFound("no metrics event in the trace");
}

std::string MetricsReport(const MetricsTick& tick) {
  std::string out =
      StrFormat("== metrics at %s ==\n", HumanUs(tick.t_us).c_str());

  const double remaining = tick.Value("budget.remaining_seconds", -1.0);
  out += StrFormat("budget remaining: %s\n",
                   remaining < 0.0 ? "unlimited"
                                   : StrFormat("%.1fs", remaining).c_str());

  out += StrFormat("compression: %.0f run(s), %.0f -> %.0f queries\n",
                   tick.Value("compress.runs"),
                   tick.Value("compress.input_queries"),
                   tick.Value("compress.selected_queries"));
  out += StrFormat(
      "tuning: %.0f run(s), %.0f enumeration round(s), %.0f config(s) "
      "explored\n",
      tick.Value("advisor.tuning_runs"),
      tick.Value("advisor.enumeration_rounds"),
      tick.Value("advisor.configurations_explored"));

  const double calls = tick.Value("whatif.optimizer_calls");
  const double hits = tick.Value("whatif.cache_hits");
  const double total = calls + hits;
  out += StrFormat("what-if: %.0f optimizer call(s), %.0f cache hit(s) "
                   "(%.1f%% hit rate), %.0f skipped as unusable\n",
                   calls, hits, total > 0.0 ? 100.0 * hits / total : 0.0,
                   tick.Value("whatif.skipped_unusable"));
  // Latency histograms record nanoseconds.
  auto quantile = [&](const std::string& histogram, const char* q) {
    return HumanUs(tick.Value(histogram + "." + q) / 1e3);
  };
  const std::string optimize = "whatif.optimize_nanos";
  if (tick.Value(optimize + ".count") > 0.0) {
    out += StrFormat("optimize latency: p50 %s  p95 %s  p99 %s\n",
                     quantile(optimize, "p50").c_str(),
                     quantile(optimize, "p95").c_str(),
                     quantile(optimize, "p99").c_str());
  }

  const double retries = tick.Value("retry.attempts");
  const double faults = tick.Value("fault.injected");
  const double deadline = tick.Value("deadline.exceeded");
  if (retries > 0.0 || faults > 0.0 || deadline > 0.0) {
    out += StrFormat(
        "robustness: %.0f retry(ies), %.0f fault(s) injected, %.0f deadline "
        "hit(s)\n",
        retries, faults, deadline);
  }

  // Per-site injected fault latency (the fault.latency.<site> histograms
  // src/common/fault.cc records for latency-kind rules).
  const std::string_view prefix = "fault.latency.";
  const std::string_view suffix = ".p50";
  for (const JsonMember& m : tick.values.members) {
    const std::string_view key = m.key;
    if (key.size() <= prefix.size() + suffix.size() ||
        key.substr(0, prefix.size()) != prefix ||
        key.substr(key.size() - suffix.size()) != suffix) {
      continue;
    }
    const std::string histogram(key.substr(0, key.size() - suffix.size()));
    out += StrFormat("fault latency %s: p50 %s  p99 %s\n",
                     histogram.substr(prefix.size()).c_str(),
                     quantile(histogram, "p50").c_str(),
                     quantile(histogram, "p99").c_str());
  }

  const double ckpt_writes = tick.Value("ckpt.writes");
  const double ckpt_restores = tick.Value("ckpt.restores");
  if (ckpt_writes > 0.0 || ckpt_restores > 0.0) {
    out += StrFormat(
        "checkpoints: %.0f write(s) (%.0f failed, %.0f bytes), %.0f "
        "restore(s) (%.0f rejected)\n",
        ckpt_writes, tick.Value("ckpt.write_failures"),
        tick.Value("ckpt.bytes_written"), ckpt_restores,
        tick.Value("ckpt.rejected"));
  }
  return out;
}

// ---- sampling profiles ----

namespace {

/// Frames kept in ProfileRecord::frames.
constexpr size_t kMaxProfileFrames = 64;

const char* PhaseOrUnattributed(const std::string& phase) {
  return phase.empty() ? "(unattributed)" : phase.c_str();
}

/// The profile event's args, back in the dump they were written from.
StatusOr<obs::ProfileDump> ReadProfileDump(const JsonValue& args) {
  ISUM_RETURN_IF_ERROR(CheckKnownKeys(
      args, {"sample_hz", "samples", "dropped", "attributed", "stacks"},
      "profile"));
  obs::ProfileDump dump;
  ISUM_ASSIGN_OR_RETURN(dump.sample_hz, IntegerField<int>(args, "sample_hz"));
  ISUM_ASSIGN_OR_RETURN(dump.samples, IntegerField<uint64_t>(args, "samples"));
  ISUM_ASSIGN_OR_RETURN(dump.dropped, IntegerField<uint64_t>(args, "dropped"));
  ISUM_ASSIGN_OR_RETURN(dump.attributed,
                        IntegerField<uint64_t>(args, "attributed"));
  ISUM_ASSIGN_OR_RETURN(const std::vector<JsonValue>* stacks,
                        ArrayField(args, "stacks"));
  for (const JsonValue& entry : *stacks) {
    obs::ProfileStack stack;
    ISUM_ASSIGN_OR_RETURN(stack.phase, entry.String("phase"));
    ISUM_ASSIGN_OR_RETURN(const std::vector<JsonValue>* frames,
                          ArrayField(entry, "frames"));
    for (const JsonValue& frame : *frames) {
      if (frame.type != JsonValue::Type::kString) {
        return Status::ParseError("profile frame is not a string");
      }
      stack.frames.push_back(frame.string);
    }
    ISUM_ASSIGN_OR_RETURN(stack.count, IntegerField<uint64_t>(entry, "count"));
    dump.stacks.push_back(std::move(stack));
  }
  return dump;
}

/// Derives the attribution share and the phase and frame tables of
/// `record` from its dump.
void SummarizeProfile(ProfileRecord* record) {
  const obs::ProfileDump& dump = record->dump;
  auto share = [&dump](uint64_t samples) {
    return dump.samples > 0 ? 100.0 * static_cast<double>(samples) /
                                  static_cast<double>(dump.samples)
                            : 0.0;
  };
  record->attributed_percent = share(dump.attributed);

  for (const obs::ProfileStack& stack : dump.stacks) {
    const std::string name = PhaseOrUnattributed(stack.phase);
    auto it = std::find_if(
        record->phases.begin(), record->phases.end(),
        [&name](const ProfilePhaseStat& p) { return p.name == name; });
    if (it == record->phases.end()) {
      record->phases.push_back(ProfilePhaseStat{name, 0, 0.0});
      it = record->phases.end() - 1;
    }
    it->samples += stack.count;
  }
  for (ProfilePhaseStat& phase : record->phases) {
    phase.percent = share(phase.samples);
  }
  std::sort(record->phases.begin(), record->phases.end(),
            [](const ProfilePhaseStat& a, const ProfilePhaseStat& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.name < b.name;
            });

  // Self counts leaf occurrences, total counts stacks containing the frame
  // (once per stack, so recursion doesn't inflate it).
  std::vector<ProfileFrameStat>& frames = record->frames;
  std::unordered_map<std::string, size_t> frame_index;
  auto frame_row = [&](const std::string& name) -> ProfileFrameStat& {
    auto [it, inserted] = frame_index.emplace(name, frames.size());
    if (inserted) frames.push_back(ProfileFrameStat{name, 0, 0});
    return frames[it->second];
  };
  for (const obs::ProfileStack& stack : dump.stacks) {
    if (stack.frames.empty()) continue;
    frame_row(stack.frames.back()).self += stack.count;
    std::unordered_set<std::string> seen;
    for (const std::string& frame : stack.frames) {
      if (seen.insert(frame).second) frame_row(frame).total += stack.count;
    }
  }
  std::sort(frames.begin(), frames.end(),
            [](const ProfileFrameStat& a, const ProfileFrameStat& b) {
              if (a.self != b.self) return a.self > b.self;
              if (a.total != b.total) return a.total > b.total;
              return a.name < b.name;
            });
  if (frames.size() > kMaxProfileFrames) frames.resize(kMaxProfileFrames);
}

std::string CollapsedToken(const std::string& name) {
  std::string out = name;
  std::replace(out.begin(), out.end(), ';', ':');
  std::replace(out.begin(), out.end(), '\n', ' ');
  return out;
}

}  // namespace

StatusOr<ProfileRecord> ParseProfile(const std::string& content) {
  bool closed = false;
  std::string torn_tail;
  ISUM_ASSIGN_OR_RETURN(const std::vector<JsonValue> items,
                        ReadTraceItems(content, &closed, &torn_tail));
  ProfileRecord record;
  const JsonValue* event = nullptr;
  for (const JsonValue& item : items) {
    const JsonValue* phase = item.Find("ph");
    const JsonValue* name = item.Find("name");
    const JsonValue* args = item.Find("args");
    if (phase == nullptr || phase->string != "M" || name == nullptr) continue;
    if (name->string == "process_name" && args != nullptr) {
      ISUM_RETURN_IF_ERROR(ReadField(*args, "name", &record.label));
    } else if (name->string == obs::kProfileEvent) {
      event = &item;
    }
  }
  if (event == nullptr) {
    return Status::NotFound("no profile event in the trace");
  }
  ISUM_ASSIGN_OR_RETURN(const double ts_us, event->Number("ts"));
  record.wall_seconds = ts_us / 1e6;
  const JsonValue* args = event->Find("args");
  if (args == nullptr || !args->is_object()) {
    return Status::ParseError("profile event without args");
  }
  ISUM_ASSIGN_OR_RETURN(record.dump, ReadProfileDump(*args));
  SummarizeProfile(&record);
  return record;
}

std::string CollapsedStacks(const ProfileRecord& record) {
  std::string out;
  for (const obs::ProfileStack& stack : record.dump.stacks) {
    std::string line = CollapsedToken(PhaseOrUnattributed(stack.phase));
    for (const std::string& frame : stack.frames) {
      line += ';';
      line += CollapsedToken(frame);
    }
    out += StrFormat("%s %llu\n", line.c_str(),
                     static_cast<unsigned long long>(stack.count));
  }
  return out;
}

std::string ProfileReport(const ProfileRecord& record, size_t top_k) {
  const obs::ProfileDump& dump = record.dump;
  std::string out;
  out += StrFormat("== profile: %s ==\n", record.label.c_str());
  out += StrFormat(
      "%llu sample(s) at %d Hz over %.2fs wall (%llu dropped), "
      "%.1f%% attributed to a phase\n",
      static_cast<unsigned long long>(dump.samples), dump.sample_hz,
      record.wall_seconds, static_cast<unsigned long long>(dump.dropped),
      record.attributed_percent);

  out += "\n== per-phase samples ==\n";
  if (record.phases.empty()) {
    out += "(no samples)\n";
  } else {
    out += StrFormat("%-40s %10s %8s\n", "phase", "samples", "share");
    for (const ProfilePhaseStat& p : record.phases) {
      out += StrFormat("%-40s %10llu %7.1f%%\n", p.name.c_str(),
                       static_cast<unsigned long long>(p.samples), p.percent);
    }
  }

  if (!record.frames.empty()) {
    const size_t n = std::min(top_k, record.frames.size());
    out += StrFormat("\n== top %zu frames by self samples ==\n", n);
    out += StrFormat("%-56s %8s %8s\n", "frame", "self", "total");
    for (size_t i = 0; i < n; ++i) {
      const ProfileFrameStat& f = record.frames[i];
      out += StrFormat("%-56s %8llu %8llu\n", f.name.c_str(),
                       static_cast<unsigned long long>(f.self),
                       static_cast<unsigned long long>(f.total));
    }
  }

  return out;
}

StatusOr<size_t> CheckProfile(const ProfileRecord& record,
                              double min_attributed_percent) {
  const obs::ProfileDump& dump = record.dump;
  if (dump.sample_hz <= 0) {
    return Status::InvalidArgument(
        StrFormat("non-positive sample_hz: %d", dump.sample_hz));
  }
  uint64_t stacked = 0;
  uint64_t attributed = 0;
  for (const obs::ProfileStack& stack : dump.stacks) {
    stacked += stack.count;
    if (!stack.phase.empty()) attributed += stack.count;
  }
  if (stacked != dump.samples) {
    return Status::InvalidArgument(
        StrFormat("stack counts sum to %llu, the profile has %llu samples",
                  static_cast<unsigned long long>(stacked),
                  static_cast<unsigned long long>(dump.samples)));
  }
  if (attributed != dump.attributed) {
    return Status::InvalidArgument(StrFormat(
        "stacks with a phase hold %llu samples, the profile says %llu",
        static_cast<unsigned long long>(attributed),
        static_cast<unsigned long long>(dump.attributed)));
  }
  if (record.attributed_percent < min_attributed_percent) {
    return Status::InvalidArgument(StrFormat(
        "only %.1f%% of samples attributed to a phase (minimum %.1f%%): "
        "is the workload instrumented?",
        record.attributed_percent, min_attributed_percent));
  }
  return static_cast<size_t>(dump.samples);
}

std::string ProfileDiff(const ProfileRecord& from, const ProfileRecord& to,
                        size_t top_k) {
  std::string out;
  out += StrFormat("== profile delta: %s -> %s ==\n", from.label.c_str(),
                   to.label.c_str());

  // Shares, not raw counts: the two runs can differ in length and rate.
  out += StrFormat("%-40s %8s %8s %8s\n", "phase", "from", "to", "delta");
  auto find_phase = [](const std::vector<ProfilePhaseStat>& phases,
                       const std::string& name) -> const ProfilePhaseStat* {
    for (const ProfilePhaseStat& p : phases) {
      if (p.name == name) return &p;
    }
    return nullptr;
  };
  auto phase_row = [&](const std::string& name, const ProfilePhaseStat* a,
                       const ProfilePhaseStat* b) {
    const double pa = a != nullptr ? a->percent : 0.0;
    const double pb = b != nullptr ? b->percent : 0.0;
    out += StrFormat("%-40s %7.1f%% %7.1f%% %+7.1f%%\n", name.c_str(), pa, pb,
                     pb - pa);
  };
  for (const ProfilePhaseStat& p : from.phases) {
    phase_row(p.name, &p, find_phase(to.phases, p.name));
  }
  for (const ProfilePhaseStat& p : to.phases) {
    if (find_phase(from.phases, p.name) == nullptr) {
      phase_row(p.name, nullptr, &p);
    }
  }

  // Frames by largest absolute self-share movement.
  struct FrameDelta {
    std::string name;
    double from_share = 0.0;
    double to_share = 0.0;
  };
  auto share = [](uint64_t self, uint64_t samples) {
    return samples > 0
               ? 100.0 * static_cast<double>(self) /
                     static_cast<double>(samples)
               : 0.0;
  };
  std::vector<FrameDelta> deltas;
  auto delta_row = [&](const std::string& name) -> FrameDelta& {
    for (FrameDelta& d : deltas) {
      if (d.name == name) return d;
    }
    deltas.push_back(FrameDelta{name, 0.0, 0.0});
    return deltas.back();
  };
  for (const ProfileFrameStat& f : from.frames) {
    delta_row(f.name).from_share = share(f.self, from.dump.samples);
  }
  for (const ProfileFrameStat& f : to.frames) {
    delta_row(f.name).to_share = share(f.self, to.dump.samples);
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const FrameDelta& a, const FrameDelta& b) {
              const double da = std::abs(a.to_share - a.from_share);
              const double db = std::abs(b.to_share - b.from_share);
              if (da != db) return da > db;
              return a.name < b.name;
            });
  if (deltas.size() > top_k) deltas.resize(top_k);
  if (!deltas.empty()) {
    out += StrFormat("\n== top %zu frame movements (self share) ==\n",
                     deltas.size());
    out += StrFormat("%-56s %8s %8s %8s\n", "frame", "from", "to", "delta");
    for (const FrameDelta& d : deltas) {
      out += StrFormat("%-56s %7.1f%% %7.1f%% %+7.1f%%\n", d.name.c_str(),
                       d.from_share, d.to_share, d.to_share - d.from_share);
    }
  }

  return out;
}

// ---- checkpoint files ----

StatusOr<std::string> InspectCheckpoint(const std::string& path) {
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  auto reader = CheckpointReader::Parse(std::move(bytes).value());
  if (!reader.ok()) return reader.status();
  std::string out = StrFormat("%s: isum-ckpt-v1, %zu bytes\n", path.c_str(),
                              reader->total_bytes());
  for (const uint32_t id : reader->SectionIds()) {
    out += StrFormat("  section %u: %zu byte(s)\n", id,
                     reader->SectionSize(id));
  }
  // The writers name each epoch <base>.<lineage>.<fingerprint>.e<N>.ckpt
  // (CheckpointStore), so the lineage picks the decoder that resume uses.
  const std::string name = path.substr(path.find_last_of('/') + 1);
  if (name.find(".compress.") != std::string::npos) {
    ISUM_ASSIGN_OR_RETURN(const core::SelectionSnapshot snapshot,
                          core::DecodeSelectionSnapshot(*reader));
    out += StrFormat(
        "selection snapshot: fingerprint %016llx, %zu round(s), prefix hash "
        "%016llx, stop %s%s\n",
        static_cast<unsigned long long>(snapshot.fingerprint),
        snapshot.selected.size(),
        static_cast<unsigned long long>(obs::SelectionOrderHash(
            snapshot.selected.data(), snapshot.selected.size())),
        StopReasonToString(snapshot.stop_reason),
        snapshot.done ? ", done" : "");
  } else if (name.find(".enum.") != std::string::npos) {
    ISUM_ASSIGN_OR_RETURN(const advisor::EnumSnapshot snapshot,
                          advisor::DecodeEnumSnapshot(*reader));
    out += StrFormat(
        "enumeration snapshot: fingerprint %016llx, %zu round(s), "
        "%zu quer(ies), %llu config(s) explored, stop %s%s\n",
        static_cast<unsigned long long>(snapshot.fingerprint),
        snapshot.winners.size(), snapshot.costs.size(),
        static_cast<unsigned long long>(snapshot.configurations_explored),
        StopReasonToString(static_cast<StopReason>(snapshot.stop_reason)),
        snapshot.done != 0 ? ", done" : "");
  }
  return out;
}

}  // namespace isum::tracecat
