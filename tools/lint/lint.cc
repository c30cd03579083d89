#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <sstream>

#include "common/jsonl.h"
#include "common/string_util.h"

namespace isum::lint {

namespace {

constexpr const char kNoAssert[] = "isum-no-assert";
constexpr const char kNoStdio[] = "isum-no-stdio";
constexpr const char kNoNondeterminism[] = "isum-no-nondeterminism";
constexpr const char kIncludeGuard[] = "isum-include-guard";
constexpr const char kMissingOverride[] = "isum-missing-override";
constexpr const char kUncheckedStatus[] = "isum-unchecked-status";
constexpr const char kNoRawClock[] = "isum-no-raw-clock";
constexpr const char kNoPerPairAlloc[] = "isum-no-perpair-alloc";
constexpr const char kBudgetPoll[] = "isum-budget-poll";
constexpr const char kLockScope[] = "isum-lock-scope";
constexpr const char kGuardedBy[] = "isum-guarded-by";
constexpr const char kJournalSchema[] = "isum-journal-schema";
constexpr const char kNoAllocInSignal[] = "isum-no-alloc-in-signal";

/// Files on the similarity/selection hot path, where a per-iteration
/// std::vector costs a malloc per pair (the regression class the scratch
/// overloads in core/features.h exist to prevent; docs/BENCHMARKING.md).
constexpr const char* kHotPathFiles[] = {
    "src/core/features.cc",      "src/core/summary.cc",
    "src/core/compression_state.cc", "src/core/benefit.cc",
    "src/core/weighing.cc",      "src/core/incremental.cc",
    "src/baselines/kmedoid.cc",
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Expected include guard for a path: strip a leading "src/", uppercase,
/// map non-alphanumerics to '_', prefix ISUM_ and close with '_'.
/// "src/catalog/catalog.h" -> "ISUM_CATALOG_CATALOG_H_". Developer tools
/// keep the tools/ prefix; bench/ and tests/ headers keep their whole
/// repo-relative path.
std::string ExpectedGuard(const std::string& path) {
  std::string p = path;
  const size_t s = p.rfind("src/");
  if (s != std::string::npos && (s == 0 || p[s - 1] == '/')) {
    p = p.substr(s + 4);
  } else {
    for (const char* root : {"tools/", "bench/", "tests/"}) {
      const size_t t = p.rfind(root);
      if (t != std::string::npos && (t == 0 || p[t - 1] == '/')) {
        p = p.substr(t);
        break;
      }
    }
  }
  std::string guard = "ISUM_";
  for (char c : p) {
    guard += IsIdentChar(c) ? static_cast<char>(std::toupper(
                                  static_cast<unsigned char>(c)))
                            : '_';
  }
  guard += '_';
  return guard;
}

/// Parses the rule list of one NOLINT directive out of comment text
/// starting right after the directive word, and merges it into `sup`.
/// No parentheses (or an unterminated list) means blanket suppression.
void MergeDirectiveRules(const std::string& text, size_t after,
                         Suppression* sup) {
  if (after >= text.size() || text[after] != '(') {
    sup->blanket = true;
    return;
  }
  const size_t close = text.find(')', after);
  if (close == std::string::npos) {
    sup->blanket = true;
    return;
  }
  const std::string inside = text.substr(after + 1, close - after - 1);
  std::string current;
  for (char c : inside + ",") {
    if (c == ',') {
      const std::string t(Trim(current));
      if (!t.empty()) sup->rules.push_back(t);
      current.clear();
    } else {
      current += c;
    }
  }
  if (sup->rules.empty()) sup->blanket = true;
}

/// Harvests NOLINT / NOLINTNEXTLINE directives from one physical line of
/// *comment* text (directives inside string literals are data, not
/// directives — the lexer never routes literal contents here).
void HarvestNolint(const std::string& text, int line, LexedSource* out) {
  static constexpr const char kNext[] = "NOLINTNEXTLINE";
  static constexpr const char kPlain[] = "NOLINT";
  size_t pos = 0;
  while ((pos = text.find(kPlain, pos)) != std::string::npos) {
    if (pos > 0 && IsIdentChar(text[pos - 1])) {
      ++pos;
      continue;
    }
    const bool next_line =
        text.compare(pos, sizeof(kNext) - 1, kNext) == 0;
    const size_t word_len = next_line ? sizeof(kNext) - 1 : sizeof(kPlain) - 1;
    const size_t after = pos + word_len;
    if (after < text.size() && IsIdentChar(text[after])) {
      ++pos;  // e.g. "NOLINTBEGIN" — not ours
      continue;
    }
    Suppression& sup =
        next_line ? out->nolint_next[line] : out->nolint[line];
    MergeDirectiveRules(text, after, &sup);
    pos = after;
  }
}

bool Covers(const Suppression& sup, const char* rule) {
  if (sup.blanket) return true;
  return std::find(sup.rules.begin(), sup.rules.end(), rule) !=
         sup.rules.end();
}

}  // namespace

std::string Violation::ToString() const {
  std::ostringstream os;
  os << file << ":" << line << ":" << column << ": [" << rule << "] "
     << message;
  return os.str();
}

std::vector<std::string> KnownRules() {
  return {kNoAssert,   kNoStdio,          kNoNondeterminism, kIncludeGuard,
          kMissingOverride, kUncheckedStatus, kNoRawClock,   kNoPerPairAlloc,
          kBudgetPoll, kLockScope,        kGuardedBy,        kJournalSchema,
          kNoAllocInSignal};
}

LexedSource Lex(const std::string& content) {
  LexedSource out;
  const size_t n = content.size();
  size_t i = 0;
  int line = 1;
  int col = 1;

  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      ++line;
      col = 1;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++col;
      ++i;
      continue;
    }

    // Line comment: runs to end of line; directives harvested from its text.
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      const size_t start = i;
      while (i < n && content[i] != '\n') {
        ++i;
        ++col;
      }
      HarvestNolint(content.substr(start, i - start), line, &out);
      continue;
    }

    // Block comment: may span lines; directives attach to the physical line
    // they appear on inside the comment.
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      i += 2;
      col += 2;
      std::string text;
      while (i < n) {
        if (content[i] == '*' && i + 1 < n && content[i + 1] == '/') {
          i += 2;
          col += 2;
          break;
        }
        if (content[i] == '\n') {
          HarvestNolint(text, line, &out);
          text.clear();
          ++line;
          col = 1;
          ++i;
          continue;
        }
        text += content[i];
        ++i;
        ++col;
      }
      HarvestNolint(text, line, &out);
      continue;
    }

    // String literal (the contents become an opaque placeholder token; the
    // verbatim source text is kept in `raw` for content-inspecting rules).
    if (c == '"') {
      const size_t lit_start = i;
      out.tokens.push_back({Token::Kind::kString, "<string>", "", line, col});
      ++i;
      ++col;
      while (i < n) {
        if (content[i] == '\\' && i + 1 < n) {
          if (content[i + 1] == '\n') {
            i += 2;
            ++line;
            col = 1;
          } else {
            i += 2;
            col += 2;
          }
          continue;
        }
        if (content[i] == '"') {
          ++i;
          ++col;
          break;
        }
        if (content[i] == '\n') {  // unterminated; tolerate
          ++line;
          col = 1;
          ++i;
          continue;
        }
        ++i;
        ++col;
      }
      out.tokens.back().raw = content.substr(lit_start, i - lit_start);
      continue;
    }

    // Character literal.
    if (c == '\'') {
      out.tokens.push_back({Token::Kind::kChar, "<char>", "", line, col});
      ++i;
      ++col;
      while (i < n) {
        if (content[i] == '\\' && i + 1 < n) {
          i += 2;
          col += 2;
          continue;
        }
        if (content[i] == '\'' || content[i] == '\n') {
          if (content[i] == '\'') {
            ++i;
            ++col;
          }
          break;
        }
        ++i;
        ++col;
      }
      continue;
    }

    // Identifier / keyword — or the prefix of a raw string literal.
    if (IsIdentStart(c)) {
      const int tcol = col;
      const size_t start = i;
      while (i < n && IsIdentChar(content[i])) {
        ++i;
        ++col;
      }
      const std::string text = content.substr(start, i - start);
      const bool raw_prefix = text == "R" || text == "uR" || text == "UR" ||
                              text == "LR" || text == "u8R";
      if (raw_prefix && i < n && content[i] == '"') {
        // R"delim( ... )delim" — the body may span lines and contain
        // anything except the closer; only `raw` carries the contents.
        const size_t lit_start = start;
        out.tokens.push_back(
            {Token::Kind::kString, "<string>", "", line, tcol});
        ++i;
        ++col;
        std::string delim;
        while (i < n && content[i] != '(' && content[i] != '\n' &&
               delim.size() < 16) {
          delim += content[i];
          ++i;
          ++col;
        }
        if (i < n && content[i] == '(') {
          ++i;
          ++col;
        }
        const std::string closer = ")" + delim + "\"";
        const size_t end = content.find(closer, i);
        const size_t stop = end == std::string::npos ? n : end;
        while (i < stop) {
          if (content[i] == '\n') {
            ++line;
            col = 1;
          } else {
            ++col;
          }
          ++i;
        }
        if (end != std::string::npos) {
          i = end + closer.size();
          col += static_cast<int>(closer.size());
        }
        out.tokens.back().raw = content.substr(lit_start, i - lit_start);
        continue;
      }
      out.tokens.push_back({Token::Kind::kIdent, text, "", line, tcol});
      continue;
    }

    // Numeric literal (decimal/hex/float, digit separators, exponents).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(content[i + 1])) != 0)) {
      const int tcol = col;
      const size_t start = i;
      while (i < n) {
        const char d = content[i];
        if (IsIdentChar(d) || d == '.') {
          ++i;
          ++col;
          continue;
        }
        if (d == '\'' && i + 1 < n &&
            std::isalnum(static_cast<unsigned char>(content[i + 1])) != 0) {
          i += 2;
          col += 2;
          continue;
        }
        if ((d == '+' || d == '-') && i > start &&
            (content[i - 1] == 'e' || content[i - 1] == 'E' ||
             content[i - 1] == 'p' || content[i - 1] == 'P')) {
          ++i;
          ++col;
          continue;
        }
        break;
      }
      out.tokens.push_back(
          {Token::Kind::kNumber, content.substr(start, i - start), "", line,
           tcol});
      continue;
    }

    // Preprocessor directive head: '#' as the first token on its line.
    if (c == '#') {
      const int tcol = col;
      const bool line_start =
          out.tokens.empty() || out.tokens.back().line < line;
      ++i;
      ++col;
      if (line_start) {
        while (i < n && (content[i] == ' ' || content[i] == '\t')) {
          ++i;
          ++col;
        }
        const size_t dstart = i;
        while (i < n && IsIdentChar(content[i])) {
          ++i;
          ++col;
        }
        out.tokens.push_back({Token::Kind::kPreproc,
                              "#" + content.substr(dstart, i - dstart), "",
                              line, tcol});
      } else {
        out.tokens.push_back({Token::Kind::kPunct, "#", "", line, tcol});
      }
      continue;
    }

    // "::" is one token so scope qualification is trivially matchable.
    if (c == ':' && i + 1 < n && content[i + 1] == ':') {
      out.tokens.push_back({Token::Kind::kPunct, "::", "", line, col});
      i += 2;
      col += 2;
      continue;
    }

    out.tokens.push_back(
        {Token::Kind::kPunct, std::string(1, c), "", line, col});
    ++i;
    ++col;
  }
  return out;
}

void CollectStatusApi(const std::string& content, StatusApi* api) {
  const LexedSource src = Lex(content);
  const auto& toks = src.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const bool is_or = toks[i].text == "StatusOr";
    if (!is_or && toks[i].text != "Status") continue;
    size_t j = i + 1;
    if (is_or) {
      // Require template args and skip over them (they may span lines —
      // the token stream does not care).
      if (j >= toks.size() || toks[j].text != "<") continue;
      int angle = 0;
      bool closed = false;
      for (; j < toks.size() && j < i + 200; ++j) {
        if (toks[j].text == "<") ++angle;
        if (toks[j].text == ">" && --angle == 0) {
          ++j;
          closed = true;
          break;
        }
      }
      if (!closed) continue;
    }
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*")) {
      ++j;
    }
    if (j >= toks.size() || toks[j].kind != Token::Kind::kIdent) continue;
    if (j + 1 >= toks.size() || toks[j + 1].text != "(") continue;
    const std::string& name = toks[j].text;
    auto& names = api->function_names;
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }
}

namespace {

struct ClassScope {
  bool has_base = false;
  int open_depth = 0;  ///< brace depth at which the class body was entered
};

struct LoopScope {
  int open_depth = 0;
  int line = 0;
  int col = 0;
  bool has_cost = false;
  bool has_poll = false;
  std::string cost_token;
};

bool ContainsBudget(const std::string& ident) {
  std::string lower = ident;
  std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  return lower.find("budget") != std::string::npos;
}

bool IsAny(const std::string& s, std::initializer_list<const char*> set) {
  for (const char* e : set) {
    if (s == e) return true;
  }
  return false;
}

}  // namespace

void LintFile(const std::string& path, const std::string& content,
              const StatusApi& api, std::vector<Violation>* out) {
  const bool is_header =
      path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
  const bool is_src = path.find("src/") != std::string::npos;
  const bool is_bench = path.find("bench/") != std::string::npos;
  const bool is_rng = path.find("common/rng.") != std::string::npos;
  const bool is_core = path.find("src/core/") != std::string::npos;
  // Raw clock reads are allowed only where the injectable clock itself lives
  // (src/common/deadline.cc) and in the tracer (its own test clock hook).
  const bool is_clock_home = path.find("src/common/") != std::string::npos ||
                             path.find("src/obs/") != std::string::npos;
  // The annotated lock shims themselves wrap std::mutex and take locks for
  // a living — both concurrency rules are off there.
  const bool is_mutex_home =
      path.find("common/mutex.h") != std::string::npos ||
      path.find("common/thread_annotations.h") != std::string::npos;
  bool is_hot_path = false;
  for (const char* hot : kHotPathFiles) {
    if (path.find(hot) != std::string::npos) is_hot_path = true;
  }

  // Per-directory rule activation (docs/ANALYSIS.md has the matrix):
  // tools, benches, and tests legitimately own stdio; randomness in tests
  // is test business; deadline polling is a library-hot-path contract.
  const bool rule_stdio = is_src;
  const bool rule_nondet = (is_src || is_bench) && !is_rng;
  const bool rule_rawclock = is_src && !is_clock_home;
  const bool rule_guardedby = is_src && !is_mutex_home;
  const bool rule_lockscope = !is_mutex_home;
  const bool rule_budget = (path.find("src/core/") != std::string::npos ||
                            path.find("src/advisor/") != std::string::npos);
  // JSON emission is the obs layer's monopoly: library code writing
  // hand-rolled JSON object literals bypasses the machine-checked schemas
  // (the decision events, the trace/metrics exporters) that tracecat and CI
  // validate. src/obs/ is where the sanctioned emitters live.
  const bool rule_journal =
      is_src && path.find("src/obs/") == std::string::npos;

  const LexedSource src = Lex(content);
  const auto& toks = src.tokens;

  auto active = [&](const char* rule, int line) {
    const auto it = src.nolint.find(line);
    if (it != src.nolint.end() && Covers(it->second, rule)) return false;
    const auto prev = src.nolint_next.find(line - 1);
    if (prev != src.nolint_next.end() && Covers(prev->second, rule)) {
      return false;
    }
    return true;
  };
  auto add = [&](int line, int col, const char* rule, std::string msg,
                 std::vector<FixIt> fixes = {}) {
    if (!active(rule, line)) return;
    out->push_back(
        Violation{path, line, col, rule, std::move(msg), std::move(fixes)});
  };

  int brace_depth = 0;
  std::vector<ClassScope> class_stack;
  std::vector<LoopScope> loop_stack;
  std::vector<int> lock_stack;  // brace depth of each live lock declaration
  bool pending_class = false;
  bool pending_base = false;
  bool loop_header = false;
  int loop_paren = 0;
  bool loop_parens_closed = false;
  int loop_line = 0;
  int loop_col = 0;
  bool pending_do = false;
  int do_line = 0;
  int do_col = 0;
  // isum-no-alloc-in-signal: set when an ISUM_SIGNAL_SAFE annotation was
  // seen and the function body has not opened yet (a ';' first means it was
  // a declaration); signal_depth is the brace depth of the open body.
  bool signal_pending = false;
  int signal_depth = -1;
  std::string first_ifndef, first_define;
  int ifndef_line = 0;
  const Token* ifndef_tok = nullptr;
  const Token* define_tok = nullptr;

  auto pop_loop = [&](const LoopScope& loop) {
    if (rule_budget && loop.has_cost && !loop.has_poll) {
      add(loop.line, loop.col, kBudgetPoll,
          "loop performs what-if costing (" + loop.cost_token +
              ") without polling its TimeBudget; call "
              "budget.CheckCancelled() / Expired() in the loop or pass the "
              "budget into TryCost so the deadline holds "
              "(docs/ROBUSTNESS.md)");
    }
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    auto next_text = [&](const char* s) {
      return i + 1 < toks.size() && toks[i + 1].text == s;
    };
    auto next_is_ident = [&] {
      return i + 1 < toks.size() && toks[i + 1].kind == Token::Kind::kIdent;
    };
    auto prev_text = [&](const char* s) {
      return i > 0 && toks[i - 1].text == s;
    };

    // A `do` not immediately followed by '{' has an unbraced body; like the
    // for/while case below, it is deliberately not tracked.
    if (pending_do && !(t.kind == Token::Kind::kPunct && t.text == "{")) {
      pending_do = false;
    }

    if (t.kind == Token::Kind::kPreproc) {
      if (is_header && t.text == "#ifndef" && first_ifndef.empty() &&
          i + 1 < toks.size() &&
          toks[i + 1].kind == Token::Kind::kIdent) {
        first_ifndef = toks[i + 1].text;
        ifndef_line = t.line;
        ifndef_tok = &toks[i + 1];
      } else if (is_header && t.text == "#define" && !first_ifndef.empty() &&
                 first_define.empty() && i + 1 < toks.size() &&
                 toks[i + 1].kind == Token::Kind::kIdent) {
        first_define = toks[i + 1].text;
        define_tok = &toks[i + 1];
      }
      continue;
    }

    if (t.kind == Token::Kind::kIdent) {
      const std::string& s = t.text;

      // --- scope-opening keywords ---
      if (s == "for" || s == "while") {
        loop_header = true;
        loop_paren = 0;
        loop_parens_closed = false;
        loop_line = t.line;
        loop_col = t.col;
      } else if (s == "do") {
        pending_do = true;
        do_line = t.line;
        do_col = t.col;
      } else if (s == "class" || s == "struct") {
        // Look ahead: a '{' before any ';', '(' or '=' opens a class body.
        bool saw_base = false;
        for (size_t j = i + 1; j < toks.size() && j < i + 200; ++j) {
          const std::string& u = toks[j].text;
          if (u == "{") {
            pending_class = true;
            pending_base = saw_base;
            break;
          }
          if (u == ";" || u == "(" || u == "=") break;
          if (toks[j].kind == Token::Kind::kPunct && u == ":") {
            saw_base = true;
          }
        }
      }

      // --- isum-missing-override ---
      if (s == "virtual" && !class_stack.empty() &&
          class_stack.back().has_base &&
          brace_depth == class_stack.back().open_depth + 1) {
        bool has_paren = false;
        bool has_tilde = false;
        bool has_override = false;
        for (size_t j = i + 1; j < toks.size() && j < i + 400; ++j) {
          const Token& u = toks[j];
          if (u.kind == Token::Kind::kPunct) {
            if (u.text == ";" || u.text == "{") break;
            if (u.text == "(") has_paren = true;
            if (u.text == "~") has_tilde = true;
          } else if (u.kind == Token::Kind::kIdent &&
                     (u.text == "override" || u.text == "final")) {
            has_override = true;
          }
        }
        if (has_paren && !has_tilde && !has_override) {
          add(t.line, t.col, kMissingOverride,
              "virtual member of a derived class should be marked override");
        }
      }

      // --- isum-no-assert ---
      if (s == "assert" && next_text("(")) {
        add(t.line, t.col, kNoAssert,
            "assert() is compiled out under NDEBUG; use ISUM_CHECK / "
            "ISUM_DCHECK from common/check.h");
      } else if (s == "abort" && next_text("(")) {
        add(t.line, t.col, kNoAssert,
            "library code must not call abort() directly; use ISUM_CHECK "
            "or return a Status");
      }

      // --- isum-no-stdio ---
      if (rule_stdio) {
        if (IsAny(s, {"printf", "fprintf", "puts", "putchar"}) &&
            next_text("(")) {
          add(t.line, t.col, kNoStdio,
              s + "() writes to stdio from library code; use "
                  "LogWarning() (common/log.h) or return data");
        } else if (IsAny(s, {"cout", "cerr"})) {
          add(t.line, t.col, kNoStdio,
              "std::" + s +
                  " in library code; use LogWarning() (common/log.h) or "
                  "return data");
        }
      }

      // --- isum-no-nondeterminism ---
      if (rule_nondet) {
        if (IsAny(s, {"rand", "srand", "random_shuffle"}) && next_text("(")) {
          add(t.line, t.col, kNoNondeterminism,
              s + "() is nondeterministic; use isum::Rng (common/rng.h) "
                  "with an explicit seed");
        } else if (s == "random_device") {
          add(t.line, t.col, kNoNondeterminism,
              "std::random_device is nondeterministic; use isum::Rng with an "
              "explicit seed");
        }
        if (is_core && s == "now" && prev_text("::") && next_text("(")) {
          add(toks[i - 1].line, toks[i - 1].col, kNoNondeterminism,
              "clock reads are banned in core compression algorithms "
              "(results must not depend on wall time); thread timing "
              "through the caller");
        }
      }

      // --- isum-no-raw-clock ---
      if (rule_rawclock) {
        if (IsAny(s, {"steady_clock", "system_clock",
                      "high_resolution_clock"}) &&
            i + 3 < toks.size() && toks[i + 1].text == "::" &&
            toks[i + 2].text == "now" && toks[i + 3].text == "(") {
          add(t.line, t.col, kNoRawClock,
              s + "::now() bypasses the injectable clock; use "
                  "MonotonicNanos() (common/deadline.h)");
        } else if (IsAny(s, {"sleep_for", "sleep_until"}) && next_text("(")) {
          add(t.line, t.col, kNoRawClock,
              s + "() bypasses the injectable sleeper; use "
                  "SleepForNanos() (common/deadline.h)");
        }
      }

      // --- isum-no-perpair-alloc ---
      if (is_hot_path && !loop_stack.empty() && s == "vector" &&
          prev_text("::") && i >= 2 && toks[i - 2].text == "std" &&
          next_text("<")) {
        add(toks[i - 2].line, toks[i - 2].col, kNoPerPairAlloc,
            "std::vector constructed inside a hot-path loop body costs a "
            "malloc per iteration; hoist it out and reuse it (clear(), or "
            "the scratch overloads in core/features.h)");
      }

      // --- isum-unchecked-status: (void)-laundered Status calls ---
      if (s == "void" && prev_text("(") && next_text(")")) {
        for (size_t j = i + 2; j < toks.size() && j < i + 64; ++j) {
          const std::string& u = toks[j].text;
          if (u == ";" || u == "{" || u == "}") break;
          if (u == "(" && toks[j - 1].kind == Token::Kind::kIdent) {
            const std::string& callee = toks[j - 1].text;
            const auto& names = api.function_names;
            if (std::find(names.begin(), names.end(), callee) !=
                names.end()) {
              add(toks[i - 1].line, toks[i - 1].col, kUncheckedStatus,
                  "(void)-cast discards the Status returned by " + callee +
                      "(); handle it, ISUM_CHECK_OK it, or justify with "
                      "NOLINT");
            }
            break;
          }
        }
      }

      // --- isum-lock-scope ---
      if (rule_lockscope) {
        if (IsAny(s, {"lock_guard", "unique_lock", "scoped_lock",
                      "shared_lock", "MutexLock"}) &&
            (next_text("<") || next_is_ident())) {
          lock_stack.push_back(brace_depth);
        } else if (!lock_stack.empty() &&
                   IsAny(s, {"TryCost", "Cost", "Optimize", "ParallelFor",
                             "SleepForNanos", "printf", "fprintf", "fopen",
                             "getline"}) &&
                   next_text("(")) {
          add(t.line, t.col, kLockScope,
              s + "() called while a lock is held; what-if costing, "
                  "sleeps, I/O, and ParallelFor must not run inside a "
                  "lock_guard/MutexLock scope — narrow the critical "
                  "section (docs/ANALYSIS.md)");
        }
      }

      // --- isum-budget-poll bookkeeping ---
      if (rule_budget && !loop_stack.empty()) {
        if (IsAny(s, {"TryCost", "Cost", "ParallelFor"}) && next_text("(")) {
          for (LoopScope& loop : loop_stack) {
            if (!loop.has_cost) loop.cost_token = s;
            loop.has_cost = true;
          }
        } else if (IsAny(s, {"CheckCancelled", "Expired", "expired",
                             "ShouldStop", "cancelled"}) ||
                   ContainsBudget(s)) {
          for (LoopScope& loop : loop_stack) loop.has_poll = true;
        }
      }

      // --- isum-no-alloc-in-signal ---
      if (s == "ISUM_SIGNAL_SAFE") {
        signal_pending = true;
      } else if (signal_depth >= 0) {
        // Inside an annotated body: the async-signal-safety contract
        // (src/common/signal_safe.h) bans allocation, locking, and stdio.
        if (s == "new" || s == "delete") {
          add(t.line, t.col, kNoAllocInSignal,
              "operator " + s +
                  " inside an ISUM_SIGNAL_SAFE function; signal handlers "
                  "must not allocate (src/common/signal_safe.h) — "
                  "preallocate outside signal context");
        } else if (IsAny(s, {"malloc", "calloc", "realloc", "free",
                             "posix_memalign", "aligned_alloc", "strdup",
                             "backtrace_symbols"}) &&
                   next_text("(")) {
          add(t.line, t.col, kNoAllocInSignal,
              s + "() allocates or frees inside an ISUM_SIGNAL_SAFE "
                  "function (src/common/signal_safe.h); preallocate "
                  "outside signal context");
        } else if (IsAny(s, {"MutexLock", "lock_guard", "unique_lock",
                             "scoped_lock", "shared_lock"})) {
          add(t.line, t.col, kNoAllocInSignal,
              s + " inside an ISUM_SIGNAL_SAFE function; a handler "
                  "interrupting the lock holder self-deadlocks — use "
                  "lock-free atomics (src/common/signal_safe.h)");
        } else if (IsAny(s, {"printf", "fprintf", "snprintf", "sprintf",
                             "puts", "fputs", "fwrite", "fopen", "getline",
                             "cout", "cerr"}) &&
                   (next_text("(") || s == "cout" || s == "cerr")) {
          add(t.line, t.col, kNoAllocInSignal,
              s + " performs stdio inside an ISUM_SIGNAL_SAFE function; "
                  "stdio locks internally (src/common/signal_safe.h) — "
                  "record raw data and format after the handler returns");
        }
      }

      // --- isum-guarded-by ---
      if (rule_guardedby && prev_text("::") && i >= 2 &&
          toks[i - 2].text == "std" && next_is_ident()) {
        if (s == "mutex") {
          std::vector<FixIt> fixes;
          if (toks[i - 2].line == t.line) {
            fixes.push_back(FixIt{toks[i - 2].line, toks[i - 2].col,
                                  t.col + static_cast<int>(s.size()),
                                  "isum::Mutex"});
          }
          add(toks[i - 2].line, toks[i - 2].col, kGuardedBy,
              "std::mutex cannot carry clang thread-safety annotations; "
              "declare an isum::Mutex and ISUM_GUARDED_BY the state it "
              "protects (common/mutex.h)",
              std::move(fixes));
        } else if (s == "condition_variable" ||
                   s == "condition_variable_any") {
          std::vector<FixIt> fixes;
          if (toks[i - 2].line == t.line) {
            fixes.push_back(FixIt{toks[i - 2].line, toks[i - 2].col,
                                  t.col + static_cast<int>(s.size()),
                                  "isum::CondVar"});
          }
          add(toks[i - 2].line, toks[i - 2].col, kGuardedBy,
              "std::" + s +
                  " cannot wait on an annotated isum::Mutex; use "
                  "isum::CondVar (common/mutex.h)",
              std::move(fixes));
        }
      }
      continue;
    }

    // --- isum-journal-schema ---
    // A string literal spelling the start of a JSON object ( {" ) is an
    // ad-hoc JSON emitter. In an ordinary literal the key's quote is
    // escaped ({\"); in a raw literal (raw text starts with the R prefix,
    // not a quote) it appears verbatim ({").
    if (rule_journal && t.kind == Token::Kind::kString) {
      const bool ordinary = !t.raw.empty() && t.raw[0] == '"';
      const bool json_object = ordinary
                                   ? t.raw.find("{\\\"") != std::string::npos
                                   : t.raw.find("{\"") != std::string::npos;
      if (json_object) {
        add(t.line, t.col, kJournalSchema,
            "string literal emits ad-hoc JSON; library code must route "
            "structured output through the src/obs/ emitters (journal.h "
            "events, Tracer::WriteMetrics, ChromeTraceJson) so every schema "
            "stays machine-checkable by tracecat and CI "
            "(docs/OBSERVABILITY.md)");
      }
    }

    if (t.kind != Token::Kind::kPunct) continue;
    const std::string& s = t.text;

    if (s == "{") {
      if (loop_header && loop_parens_closed) {
        LoopScope loop;
        loop.open_depth = brace_depth;
        loop.line = loop_line;
        loop.col = loop_col;
        loop_stack.push_back(std::move(loop));
        loop_header = false;
      } else if (pending_do) {
        LoopScope loop;
        loop.open_depth = brace_depth;
        loop.line = do_line;
        loop.col = do_col;
        loop_stack.push_back(std::move(loop));
        pending_do = false;
      }
      if (pending_class) {
        class_stack.push_back({pending_base, brace_depth});
        pending_class = false;
      }
      if (signal_pending) {
        signal_depth = brace_depth;
        signal_pending = false;
      }
      ++brace_depth;
    } else if (s == "}") {
      --brace_depth;
      while (!loop_stack.empty() &&
             loop_stack.back().open_depth == brace_depth) {
        pop_loop(loop_stack.back());
        loop_stack.pop_back();
      }
      while (!class_stack.empty() &&
             class_stack.back().open_depth == brace_depth) {
        class_stack.pop_back();
      }
      while (!lock_stack.empty() && lock_stack.back() > brace_depth) {
        lock_stack.pop_back();
      }
      if (signal_depth == brace_depth) signal_depth = -1;
    } else if (s == ";") {
      pending_class = false;
      signal_pending = false;  // annotated declaration, no body
      if (loop_header && loop_parens_closed) {
        loop_header = false;  // unbraced single-statement body
      }
    } else if (loop_header && !loop_parens_closed) {
      if (s == "(") {
        ++loop_paren;
      } else if (s == ")" && loop_paren > 0 && --loop_paren == 0) {
        loop_parens_closed = true;
      }
    }
  }

  // --- include guard verdict ---
  if (is_header) {
    const std::string expected = ExpectedGuard(path);
    auto rename_fix = [&](const Token* tok) {
      return FixIt{tok->line, tok->col,
                   tok->col + static_cast<int>(tok->text.size()), expected};
    };
    if (first_ifndef.empty()) {
      add(1, 1, kIncludeGuard, "missing include guard " + expected);
    } else if (first_ifndef != expected) {
      std::vector<FixIt> fixes = {rename_fix(ifndef_tok)};
      if (define_tok != nullptr && first_define != expected) {
        fixes.push_back(rename_fix(define_tok));
      }
      add(ifndef_line, 1, kIncludeGuard,
          "include guard is " + first_ifndef + ", expected " + expected,
          std::move(fixes));
    } else if (first_define != expected) {
      std::vector<FixIt> fixes;
      if (define_tok != nullptr) fixes.push_back(rename_fix(define_tok));
      add(ifndef_line, 1, kIncludeGuard,
          "#define after #ifndef " + expected + " is missing or mismatched",
          std::move(fixes));
    }
  }

  // --- isum-unchecked-status: status.h must keep its [[nodiscard]]s ---
  const std::string status_h = "src/common/status.h";
  if (path.size() >= status_h.size() &&
      path.compare(path.size() - status_h.size(), status_h.size(),
                   status_h) == 0) {
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent || toks[i].text != "class") {
        continue;
      }
      if (i > 0 && toks[i - 1].text == "enum") continue;
      bool nodiscard = false;
      std::string name;
      size_t j = i + 1;
      for (; j < toks.size() && j < i + 12; ++j) {
        if (toks[j].text == "[" || toks[j].text == "]") continue;
        if (toks[j].kind == Token::Kind::kIdent) {
          if (toks[j].text == "nodiscard") {
            nodiscard = true;
            continue;
          }
          name = toks[j].text;
        }
        break;
      }
      if (name != "Status" && name != "StatusOr") continue;
      if (j + 1 < toks.size() && toks[j + 1].text == ";") continue;
      if (!nodiscard) {
        add(toks[i].line, 1, kUncheckedStatus,
            "Status/StatusOr must be declared [[nodiscard]] so dropped "
            "errors fail the -Werror build");
      }
    }
  }
}

std::string ApplyFixes(const std::string& content,
                       const std::vector<Violation>& violations) {
  std::vector<FixIt> fixes;
  for (const Violation& v : violations) {
    for (const FixIt& f : v.fixes) fixes.push_back(f);
  }
  if (fixes.empty()) return content;

  std::vector<std::string> lines;
  std::string current;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  const bool trailing_newline = content.empty() || content.back() == '\n';
  if (!trailing_newline) lines.push_back(std::move(current));

  // Bottom-up so earlier replacements never shift later offsets; on ties,
  // rightmost first. Overlapping fixes keep the first applied.
  std::sort(fixes.begin(), fixes.end(), [](const FixIt& a, const FixIt& b) {
    if (a.line != b.line) return a.line > b.line;
    return a.col_begin > b.col_begin;
  });
  int last_line = -1;
  int last_begin = 0;
  for (const FixIt& f : fixes) {
    if (f.line < 1 || f.line > static_cast<int>(lines.size())) continue;
    std::string& ln = lines[f.line - 1];
    const int begin = f.col_begin - 1;
    const int end = f.col_end - 1;
    if (begin < 0 || end < begin || end > static_cast<int>(ln.size())) {
      continue;
    }
    if (f.line == last_line && end > last_begin) continue;  // overlap
    ln.replace(static_cast<size_t>(begin), static_cast<size_t>(end - begin),
               f.replacement);
    last_line = f.line;
    last_begin = begin;
  }

  std::string out;
  for (size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (i + 1 < lines.size() || trailing_newline) out += '\n';
  }
  return out;
}

std::string ToJson(const std::vector<Violation>& violations) {
  std::ostringstream os;
  os << "{\"violations\":[";
  for (size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i > 0) os << ",";
    os << "{\"file\":\"" << JsonEscape(v.file) << "\",\"line\":" << v.line
       << ",\"column\":" << v.column << ",\"rule\":\"" << JsonEscape(v.rule)
       << "\",\"message\":\"" << JsonEscape(v.message) << "\",\"fixable\":"
       << (v.fixes.empty() ? "false" : "true") << "}";
  }
  os << "]}";
  return os.str();
}

std::string ToSarif(const std::vector<Violation>& violations) {
  std::ostringstream os;
  os << "{\"$schema\":"
        "\"https://json.schemastore.org/sarif-2.1.0.json\","
        "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
        "\"name\":\"isum_lint\",\"rules\":[";
  const std::vector<std::string> rules = KnownRules();
  for (size_t i = 0; i < rules.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"id\":\"" << JsonEscape(rules[i]) << "\"}";
  }
  os << "]}},\"results\":[";
  for (size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i > 0) os << ",";
    os << "{\"ruleId\":\"" << JsonEscape(v.rule)
       << "\",\"level\":\"error\",\"message\":{\"text\":\""
       << JsonEscape(v.message)
       << "\"},\"locations\":[{\"physicalLocation\":{"
          "\"artifactLocation\":{\"uri\":\""
       << JsonEscape(v.file) << "\"},\"region\":{\"startLine\":" << v.line
       << ",\"startColumn\":" << v.column << "}}}]}";
  }
  os << "]}]}";
  return os.str();
}

}  // namespace isum::lint
