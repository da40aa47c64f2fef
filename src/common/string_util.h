// Small string helpers shared across modules.

#ifndef TELCO_COMMON_STRING_UTIL_H_
#define TELCO_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace telco {

/// Splits `text` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// ASCII lower-casing.
std::string ToLower(std::string_view text);

/// True iff `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Parses all of `text` as a base-10 integer in [lo, hi]. Empty text,
/// trailing characters ("12k", "0x"), a leading '+' or whitespace, and
/// out-of-range values are InvalidArgument errors whose message starts
/// with `name` (e.g. "--customers").
Result<int64_t> ParseInt64(std::string_view text, int64_t lo, int64_t hi,
                           std::string_view name);

/// Parses all of `text` as a finite decimal number in [lo, hi]. Empty
/// text, trailing characters ("5x"), a leading '+' or whitespace, NaN,
/// infinities, values beyond double range ("1e400") and out-of-range
/// values are InvalidArgument errors whose message starts with `name`.
Result<double> ParseDouble(std::string_view text, double lo, double hi,
                           std::string_view name);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace telco

#endif  // TELCO_COMMON_STRING_UTIL_H_
