#pragma once
// Command-line helpers shared by the benches that take their own flags
// (bench_distributed, bench_micro): strict count parsing and
// `--name VALUE` / `--name=VALUE` matching.

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>

namespace plum::bench {

/// Parses a non-negative decimal count; rejects empty, signed, trailing
/// garbage and out-of-range text (atoi would turn "abc" into 0 = all cores).
inline bool parse_count(const char* text, int* out) {
  if (text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (errno != 0 || *end != '\0' || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

/// Returns the value of `--name VALUE` / `--name=VALUE` at argv[*i]
/// (advancing *i past a separate VALUE), or nullptr when argv[*i] is not
/// that flag. *missing is set when the flag has no value.
inline const char* flag_value(const char* name, int argc, char** argv, int* i,
                              bool* missing) {
  const char* a = argv[*i];
  const std::size_t n = std::strlen(name);
  if (std::strncmp(a, name, n) != 0) return nullptr;
  if (a[n] == '=') return a + n + 1;
  if (a[n] != '\0') return nullptr;
  if (*i + 1 >= argc) {
    *missing = true;
    return nullptr;
  }
  return argv[++*i];
}

}  // namespace plum::bench
