// Minimal command-line flag parsing for the CLI tools and benches.
//
// Supports --key=value and --key value; everything else is a positional
// argument. No registration step — callers query typed getters with
// defaults, and can list unknown keys for error reporting.
#pragma once

#include <cstdint>
#include <map>
#include <string>
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

/// Sizes the global thread pool from the standard --threads flag
/// (default: hardware concurrency; --threads=1 restores exact serial
/// behavior). Call once at startup, before any parallel work runs.
void ApplyThreadsFlag(const Flags& flags);

/// Pins the SIMD kernel backend from the standard --simd flag
/// (auto|off|avx2; default auto = widest supported ISA,
/// --simd=off restores the exact scalar golden path). Aborts with a
/// diagnostic on unknown or unsupported values. Call once at startup,
/// before any kernel runs.
void ApplySimdFlag(const Flags& flags);

}  // namespace pup
