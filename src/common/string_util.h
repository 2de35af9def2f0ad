// Small string helpers used by CSV I/O and rule formatting.
#ifndef QARM_COMMON_STRING_UTIL_H_
#define QARM_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace qarm {

// Splits `input` on `delim`; empty fields are preserved.
std::vector<std::string> Split(std::string_view input, char delim);

// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Escapes `s` for embedding in a JSON document (quotes included).
std::string JsonEscape(std::string_view s);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// Formats a double with up to `precision` significant decimals, trimming
// trailing zeros ("2.50" -> "2.5", "3.00" -> "3").
std::string FormatDouble(double value, int precision = 6);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Strict numeric parsing for untrusted text (CLI flags, config fields).
// Unlike bare strtod/strtoull these reject empty input, trailing garbage,
// out-of-range magnitudes, and non-finite results ("nan", "inf"), and never
// silently yield a default. Leading/trailing ASCII whitespace is allowed.
Result<double> ParseDouble(std::string_view text);
Result<uint64_t> ParseUint64(std::string_view text);

}  // namespace qarm

#endif  // QARM_COMMON_STRING_UTIL_H_
