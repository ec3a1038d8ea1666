// Strict numeric option values, shared by the command-line tools: the whole
// argument must spell the number, so "4x", "" or "abc" is a usage error
// (exit status 2), never a silently truncated value.
#pragma once

#include <cmath>
#include <cstdlib>
#include <limits>

namespace mpiv::cli {

/// A decimal count in [1, INT_MAX]; 0 for anything else ("4x", "", "-1",
/// "0", too many digits).
inline int positive_count(const char* text) {
  long long n = 0;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return 0;
    n = n * 10 + (*c - '0');
    if (n > std::numeric_limits<int>::max()) return 0;
  }
  return static_cast<int>(n);
}

/// A finite number >= 0; -1 for anything else ("abc", "0.1x", "-2", "inf").
inline double nonnegative_number(const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0) return -1;
  return v;
}

}  // namespace mpiv::cli
