#ifndef ISUM_COMMON_STRING_UTIL_H_
#define ISUM_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace isum {

/// Splits `text` on `sep`, keeping empty tokens.
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

/// ASCII lower-case copy.
std::string ToLower(std::string_view text);

/// ASCII upper-case copy.
std::string ToUpper(std::string_view text);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True, with `*out` set, when all of `text` is one finite number in strtod
/// syntax. Command-line values go through this, so "abc", "5x", "" and
/// "nan" are refused rather than read as 0 or a prefix.
bool ParseNumber(const char* text, double* out);

/// True, with `*out` set, when all of `text` is a decimal count that fits
/// in 64 bits. A sign, leading space or any other character is refused.
bool ParseCount(const char* text, uint64_t* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace isum

#endif  // ISUM_COMMON_STRING_UTIL_H_
