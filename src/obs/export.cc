#include "obs/export.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "common/jsonl.h"
#include "common/string_util.h"

namespace isum::obs {

namespace {

/// Frames kept in the isum-profile-v1 record (the collapsed-stack file is
/// complete; the JSON is the triage view `tracecat profile` renders).
constexpr size_t kMaxProfileFrames = 64;

std::string CollapsedToken(const std::string& name) {
  std::string out = name;
  std::replace(out.begin(), out.end(), ';', ':');
  std::replace(out.begin(), out.end(), '\n', ' ');
  return out;
}

const char* PhaseOrUnattributed(const std::string& phase) {
  return phase.empty() ? "(unattributed)" : phase.c_str();
}

}  // namespace

std::string CollapsedStacks(const ProfileDump& dump) {
  std::string out;
  for (const ProfileStack& stack : dump.stacks) {
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

std::string ProfileJson(const ProfileDump& dump, const ProfileMeta& meta) {
  // Per-phase sample totals ("" renders as "(unattributed)").
  struct PhaseRow {
    std::string name;
    uint64_t samples = 0;
  };
  std::vector<PhaseRow> phases;
  for (const ProfileStack& stack : dump.stacks) {
    const std::string name = PhaseOrUnattributed(stack.phase);
    PhaseRow* row = nullptr;
    for (PhaseRow& existing : phases) {
      if (existing.name == name) {
        row = &existing;
        break;
      }
    }
    if (row == nullptr) {
      phases.push_back(PhaseRow{name, 0});
      row = &phases.back();
    }
    row->samples += stack.count;
  }
  std::sort(phases.begin(), phases.end(),
            [](const PhaseRow& a, const PhaseRow& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.name < b.name;
            });

  // Frame self/total: self counts leaf occurrences, total counts stacks
  // containing the frame (once per stack, so recursion doesn't inflate it).
  struct FrameRow {
    std::string name;
    uint64_t self = 0;
    uint64_t total = 0;
  };
  std::vector<FrameRow> frames;
  std::unordered_map<std::string, size_t> frame_index;
  auto frame_row = [&](const std::string& name) -> FrameRow& {
    auto [it, inserted] = frame_index.emplace(name, frames.size());
    if (inserted) frames.push_back(FrameRow{name, 0, 0});
    return frames[it->second];
  };
  for (const ProfileStack& stack : dump.stacks) {
    if (stack.frames.empty()) continue;
    frame_row(stack.frames.back()).self += stack.count;
    std::unordered_set<std::string> seen;
    for (const std::string& frame : stack.frames) {
      if (seen.insert(frame).second) frame_row(frame).total += stack.count;
    }
  }
  std::sort(frames.begin(), frames.end(),
            [](const FrameRow& a, const FrameRow& b) {
              if (a.self != b.self) return a.self > b.self;
              if (a.total != b.total) return a.total > b.total;
              return a.name < b.name;
            });
  if (frames.size() > kMaxProfileFrames) frames.resize(kMaxProfileFrames);

  const double attributed_percent =
      dump.samples > 0
          ? 100.0 * static_cast<double>(dump.attributed) /
                static_cast<double>(dump.samples)
          : 0.0;

  std::string out;
  out += "{\n";
  out += "\"schema\": \"isum-profile-v1\",\n";
  out += StrFormat("\"label\": \"%s\",\n", JsonEscape(meta.label).c_str());
  out += StrFormat("\"bench\": \"%s\",\n", JsonEscape(meta.bench).c_str());
  out += StrFormat("\"git_rev\": \"%s\",\n", JsonEscape(meta.git_rev).c_str());
  out += StrFormat("\"sample_hz\": %d,\n", dump.sample_hz);
  out += StrFormat("\"wall_seconds\": %.6f,\n", meta.wall_seconds);
  out += StrFormat("\"samples\": %llu,\n",
                   static_cast<unsigned long long>(dump.samples));
  out += StrFormat("\"dropped\": %llu,\n",
                   static_cast<unsigned long long>(dump.dropped));
  out += StrFormat("\"attributed_samples\": %llu,\n",
                   static_cast<unsigned long long>(dump.attributed));
  out += StrFormat("\"attributed_percent\": %.2f,\n", attributed_percent);
  out += StrFormat("\"alloc_enabled\": %d,\n", dump.alloc_enabled ? 1 : 0);
  out += StrFormat("\"alloc_total_bytes\": %llu,\n",
                   static_cast<unsigned long long>(dump.alloc_total_bytes));
  out += StrFormat("\"alloc_total_count\": %llu,\n",
                   static_cast<unsigned long long>(dump.alloc_total_count));
  out += StrFormat("\"alloc_live_bytes\": %lld,\n",
                   static_cast<long long>(dump.alloc_live_bytes));
  out += StrFormat("\"alloc_peak_bytes\": %llu,\n",
                   static_cast<unsigned long long>(dump.alloc_peak_bytes));
  out += "\"phases\": [\n";
  for (size_t i = 0; i < phases.size(); ++i) {
    const double percent =
        dump.samples > 0 ? 100.0 * static_cast<double>(phases[i].samples) /
                               static_cast<double>(dump.samples)
                         : 0.0;
    out += StrFormat(
        "{\"name\": \"%s\", \"samples\": %llu, \"percent\": %.2f}%s\n",
        JsonEscape(phases[i].name).c_str(),
        static_cast<unsigned long long>(phases[i].samples), percent,
        i + 1 < phases.size() ? "," : "");
  }
  out += "],\n";
  out += "\"frames\": [\n";
  for (size_t i = 0; i < frames.size(); ++i) {
    out += StrFormat(
        "{\"name\": \"%s\", \"self\": %llu, \"total\": %llu}%s\n",
        JsonEscape(frames[i].name).c_str(),
        static_cast<unsigned long long>(frames[i].self),
        static_cast<unsigned long long>(frames[i].total),
        i + 1 < frames.size() ? "," : "");
  }
  out += "],\n";
  out += "\"alloc_phases\": [\n";
  for (size_t i = 0; i < dump.alloc_phases.size(); ++i) {
    const ProfileAllocPhase& phase = dump.alloc_phases[i];
    out += StrFormat(
        "{\"name\": \"%s\", \"bytes\": %llu, \"count\": %llu}%s\n",
        JsonEscape(PhaseOrUnattributed(phase.phase)).c_str(),
        static_cast<unsigned long long>(phase.bytes),
        static_cast<unsigned long long>(phase.count),
        i + 1 < dump.alloc_phases.size() ? "," : "");
  }
  out += "]\n";
  out += "}\n";
  return out;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << content;
  out.flush();
  if (!out.good()) {
    return Status::Internal("write failed: " + path);
  }
  return Status::OK();
}

}  // namespace isum::obs
