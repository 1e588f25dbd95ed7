// Integer command-line flags, parsed one way by every tool.
#ifndef RC_TOOLS_INT_FLAG_H_
#define RC_TOOLS_INT_FLAG_H_

#include <cerrno>
#include <cstdlib>
#include <iostream>

namespace rc::tools {

// Whole-string base-10 integer in [lo, hi]; anything else ("abc", "7x", "-5"
// below lo, out of range) exits 2 rather than being truncated or read as 0.
inline long long ParseIntFlag(const char* flag, const char* text, long long lo, long long hi) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || value < lo || value > hi) {
    std::cerr << flag << " must be an integer in [" << lo << ", " << hi << "], got '" << text
              << "'\n";
    std::exit(2);
  }
  return value;
}

}  // namespace rc::tools

#endif  // RC_TOOLS_INT_FLAG_H_
