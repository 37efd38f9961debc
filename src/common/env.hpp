// Strict environment-knob parsing for the tools and bench binaries
// (IOTLS_THREADS, IOTLS_TRACE, IOTLS_METRICS, ...); the libraries read none.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace iotls::common {

/// Strictly parse a non-negative integer environment knob. Unset or empty
/// means `fallback`; anything else must be a complete base-10 integer ≥ 0.
/// Malformed values ("abc", "4x", "-1", "1e3") exit with a clear message
/// instead of silently truncating to 0 the way strtoul would.
inline long strict_env_long(const char* name, long fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(env, &end, 10);
  if (errno != 0 || end == env || *end != '\0' || value < 0) {
    std::fprintf(stderr,
                 "error: %s='%s' is not a non-negative integer "
                 "(e.g. %s=4)\n",
                 name, env, name);
    std::exit(2);
  }
  return value;
}

/// Read a string environment knob. Unset or empty means `fallback`.
/// Centralised here so the rest of the tree stays getenv-free (the lint
/// determinism rule allows getenv only in this file).
inline const char* env_string(const char* name, const char* fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return env;
}

}  // namespace iotls::common
