#include "common/jsonl.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/string_util.h"

namespace isum {

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

StatusOr<std::string> JsonUnescape(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    const char c = escaped[i];
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (++i >= escaped.size()) {
      return Status::ParseError("dangling escape in JSON string");
    }
    switch (escaped[i]) {
      case '"':
        out.push_back('"');
        break;
      case '\\':
        out.push_back('\\');
        break;
      case '/':
        out.push_back('/');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'u': {
        if (i + 4 >= escaped.size()) {
          return Status::ParseError("truncated \\u escape");
        }
        unsigned code = 0;
        for (int d = 1; d <= 4; ++d) {
          const char h = escaped[i + d];
          code <<= 4;
          if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
          else return Status::ParseError("bad \\u escape");
        }
        if (code > 0x7F) {
          return Status::ParseError("non-ASCII \\u escape unsupported");
        }
        out.push_back(static_cast<char>(code));
        i += 4;
        break;
      }
      default:
        return Status::ParseError("unknown escape in JSON string");
    }
  }
  return out;
}

namespace {

/// Recursive-descent parser over one document. Depth counts the containers
/// open around the value being parsed.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    JsonValue value;
    ISUM_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing characters after value");
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError(StrFormat("%s at byte %zu", what.c_str(), pos_));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  bool PeekDigit() const {
    return !AtEnd() && Peek() >= '0' && Peek() <= '9';
  }

  void SkipWhitespace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    SkipWhitespace();
    if (AtEnd()) return Error("unexpected end of input");
    switch (Peek()) {
      case '{':
        return ParseObject(out, depth + 1);
      case '[':
        return ParseArray(out, depth + 1);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return ParseLiteral("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        return ParseLiteral("false");
      case 'n':
        return ParseLiteral("null");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Error("invalid literal");
    }
    pos_ += literal.size();
    return Status::OK();
  }

  /// RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    if (!PeekDigit()) return Error("invalid value");
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (PeekDigit()) ++pos_;
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (!PeekDigit()) return Error("digit expected after '.'");
      while (PeekDigit()) ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (!PeekDigit()) return Error("digit expected in exponent");
      while (PeekDigit()) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(out->number)) return Error("number out of range");
    return Status::OK();
  }

  /// Finds the closing quote, then defers escape handling to JsonUnescape
  /// so the reader and the escaping helpers share one rule set.
  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    const size_t start = pos_;
    for (; !AtEnd(); ++pos_) {
      const char c = Peek();
      if (c == '"') {
        auto unescaped =
            JsonUnescape(std::string(text_.substr(start, pos_ - start)));
        if (!unescaped.ok()) return Error(unescaped.status().message());
        *out = std::move(unescaped).value();
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c == '\\' && pos_ + 1 < text_.size()) ++pos_;
    }
    return Error("unterminated string");
  }

  Status ParseArray(JsonValue* out, int depth) {
    if (depth > kMaxJsonDepth) return Error("nesting too deep");
    ++pos_;  // '['
    out->type = JsonValue::Type::kArray;
    if (Consume(']')) return Status::OK();
    for (;;) {
      out->items.emplace_back();
      ISUM_RETURN_IF_ERROR(ParseValue(&out->items.back(), depth));
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("',' or ']' expected");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    if (depth > kMaxJsonDepth) return Error("nesting too deep");
    ++pos_;  // '{'
    out->type = JsonValue::Type::kObject;
    if (Consume('}')) return CheckUniqueKeys(*out);
    for (;;) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Error("object key expected");
      JsonMember member;
      ISUM_RETURN_IF_ERROR(ParseString(&member.key));
      if (!Consume(':')) return Error("':' expected");
      ISUM_RETURN_IF_ERROR(ParseValue(&member.value, depth));
      out->members.push_back(std::move(member));
      if (Consume(',')) continue;
      if (Consume('}')) return CheckUniqueKeys(*out);
      return Error("',' or '}' expected");
    }
  }

  /// Sort-based, so a wide object costs O(n log n), not O(n^2).
  Status CheckUniqueKeys(const JsonValue& object) const {
    std::vector<std::string_view> keys;
    keys.reserve(object.members.size());
    for (const JsonMember& m : object.members) keys.push_back(m.key);
    std::sort(keys.begin(), keys.end());
    const auto dup = std::adjacent_find(keys.begin(), keys.end());
    if (dup != keys.end()) {
      return Error("duplicate key \"" + std::string(*dup) + "\"");
    }
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const JsonMember& m : members) {
    if (m.key == key) return &m.value;
  }
  return nullptr;
}

StatusOr<double> JsonValue::Number(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) {
    return Status::ParseError("missing key '" + std::string(key) + "'");
  }
  if (v->type != Type::kNumber) {
    return Status::ParseError("non-numeric value for '" + std::string(key) +
                              "'");
  }
  return v->number;
}

StatusOr<std::string> JsonValue::String(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) {
    return Status::ParseError("missing key '" + std::string(key) + "'");
  }
  if (v->type != Type::kString) {
    return Status::ParseError("non-string value for '" + std::string(key) +
                              "'");
  }
  return v->string;
}

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

StatusOr<std::vector<JsonValue>> ParseJsonLines(std::string_view text) {
  std::vector<JsonValue> values;
  size_t line_no = 0;
  for (size_t begin = 0; begin < text.size();) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    if (Trim(line).empty()) continue;
    auto value = ParseJson(line);
    if (!value.ok()) {
      return Status::ParseError(StrFormat("line %zu: %s", line_no,
                                          value.status().message().c_str()));
    }
    values.push_back(std::move(value).value());
  }
  return values;
}
}  // namespace isum
