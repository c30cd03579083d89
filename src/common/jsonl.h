#ifndef ISUM_COMMON_JSONL_H_
#define ISUM_COMMON_JSONL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace isum {

/// The one JSON reader behind every file the repo reads back: the
/// Query-Store and statistics loaders, the fault spec, and tracecat's
/// trace, metrics, bench, profile and journal readers. A small
/// recursive-descent parser for RFC 8259 with three deliberate limits:
/// string escapes are ASCII-only (as JsonUnescape), duplicate object keys
/// are rejected, and nesting deeper than kMaxJsonDepth fails with a Status
/// instead of exhausting the stack. Layout (line breaks, spacing, key
/// order) never matters to a reader built on it.

/// Maximum container nesting ParseJson accepts.
inline constexpr int kMaxJsonDepth = 64;

struct JsonMember;

/// One parsed JSON value.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;     ///< array elements
  std::vector<JsonMember> members;  ///< object members, in document order

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  /// The object member named `key`; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  bool Has(std::string_view key) const { return Find(key) != nullptr; }
  /// Typed member lookups: a missing key and a value of another type are
  /// both kParseError.
  StatusOr<double> Number(std::string_view key) const;
  StatusOr<std::string> String(std::string_view key) const;
};

struct JsonMember {
  std::string key;
  JsonValue value;
};

/// Parses exactly one JSON value; only whitespace may follow it.
StatusOr<JsonValue> ParseJson(std::string_view text);

/// Parses one JSON value per non-blank line (JSONL). Errors name the
/// 1-based line number.
StatusOr<std::vector<JsonValue>> ParseJsonLines(std::string_view text);

/// Escapes a raw string for embedding in a JSON string literal.
std::string JsonEscape(const std::string& raw);

/// Reverses JsonEscape (ASCII \u escapes only).
StatusOr<std::string> JsonUnescape(const std::string& escaped);

}  // namespace isum

#endif  // ISUM_COMMON_JSONL_H_
