#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace telco {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t lo = 0;
  size_t hi = text.size();
  while (lo < hi && std::isspace(static_cast<unsigned char>(text[lo]))) ++lo;
  while (hi > lo && std::isspace(static_cast<unsigned char>(text[hi - 1]))) {
    --hi;
  }
  return text.substr(lo, hi - lo);
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

Result<int64_t> ParseInt64(std::string_view text, int64_t lo, int64_t hi,
                           std::string_view name) {
  int64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec == std::errc::invalid_argument || ptr != end) {
    return Status::InvalidArgument(StrFormat(
        "%.*s expects an integer, got '%.*s'", static_cast<int>(name.size()),
        name.data(), static_cast<int>(text.size()), text.data()));
  }
  if (ec == std::errc::result_out_of_range || value < lo || value > hi) {
    return Status::InvalidArgument(StrFormat(
        "%.*s must be in [%lld, %lld], got '%.*s'",
        static_cast<int>(name.size()), name.data(),
        static_cast<long long>(lo), static_cast<long long>(hi),
        static_cast<int>(text.size()), text.data()));
  }
  return value;
}

Result<double> ParseDouble(std::string_view text, double lo, double hi,
                           std::string_view name) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec == std::errc::invalid_argument || ptr != end ||
      !std::isfinite(value)) {
    return Status::InvalidArgument(StrFormat(
        "%.*s expects a finite number, got '%.*s'",
        static_cast<int>(name.size()), name.data(),
        static_cast<int>(text.size()), text.data()));
  }
  if (ec == std::errc::result_out_of_range || value < lo || value > hi) {
    return Status::InvalidArgument(StrFormat(
        "%.*s must be in [%g, %g], got '%.*s'", static_cast<int>(name.size()),
        name.data(), lo, hi, static_cast<int>(text.size()), text.data()));
  }
  return value;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace telco
