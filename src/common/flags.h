// Minimal command-line flag parsing for the CLI tools and benches.
//
// Supports --key=value and --key value; everything else is a positional
// argument. No registration step — callers query typed getters with
// defaults, and can list unknown keys for error reporting.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/status.h"

namespace pup {

/// Parsed command line.
class Flags {
 public:
  /// Parses argv (argv[0] is skipped).
  static Flags Parse(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  bool Has(const std::string& name) const;

  /// Typed getters; return `fallback` when the flag is absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  /// Non-flag arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were provided but never queried — typo detection.
  std::vector<std::string> UnusedFlags() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

/// Reads integer flag --`name` strictly: `fallback` when absent, else the
/// whole value must be a non-negative integer that fits T, or the result
/// is InvalidArgument. Flags::GetInt would read "abc" as 0 and keep "-3".
template <typename T>
Result<T> NonNegativeIntFlag(const Flags& flags, const std::string& name,
                             T fallback = T{0}) {
  if (!flags.Has(name)) return fallback;
  const std::string text = flags.GetString(name, "");
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || std::cmp_less(value, 0)) {
    return Status::InvalidArgument(
        "--" + name + " is not a non-negative integer: '" + text + "'");
  }
  return value;
}

/// Largest --threads value a tool accepts: a bigger one would start that
/// many pool threads.
inline constexpr int kMaxThreadsFlag = 1024;

/// Reads the standard --threads flag strictly: absent or 0 means hardware
/// concurrency (returned as 0); otherwise a whole non-negative integer of
/// at most kMaxThreadsFlag, or InvalidArgument. Starts no thread.
Result<int> ThreadsFlag(const Flags& flags);

/// Applies the standard runtime flags, --threads then --simd, and returns
/// the first error; a flag after a failed one is left unapplied.
/// --threads (ThreadsFlag; default: hardware concurrency; --threads=1
/// restores exact serial behavior) sizes the global thread pool. --simd
/// (auto|off|avx2; default auto = widest supported ISA; --simd=off
/// restores the exact scalar golden path) pins the kernel backend; an
/// unknown or unsupported value is an InvalidArgument. Call once at
/// startup, before any parallel work or kernel runs.
Status ApplyRuntimeFlags(const Flags& flags);

}  // namespace pup
