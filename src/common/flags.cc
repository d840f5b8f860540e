#include "common/flags.h"

#include <cstdlib>

#include "common/simd.h"
#include "common/thread_pool.h"

namespace pup {

Flags Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[body] = argv[++i];
    } else {
      flags.values_[body] = "true";  // Bare boolean flag.
    }
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  queried_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t fallback) const {
  queried_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? fallback : std::atoll(it->second.c_str());
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  queried_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? fallback : std::atof(it->second.c_str());
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0";
}

std::vector<std::string> Flags::UnusedFlags() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : values_) {
    if (!queried_.count(key)) unused.push_back(key);
  }
  return unused;
}

Result<int> ThreadsFlag(const Flags& flags) {
  PUP_ASSIGN_OR_RETURN(int threads, NonNegativeIntFlag<int>(flags, "threads"));
  if (threads > kMaxThreadsFlag) {
    return Status::InvalidArgument("--threads must be at most " +
                                   std::to_string(kMaxThreadsFlag) + ": " +
                                   std::to_string(threads));
  }
  return threads;
}

Status ApplyRuntimeFlags(const Flags& flags) {
  PUP_ASSIGN_OR_RETURN(int threads, ThreadsFlag(flags));
  ThreadPool::SetGlobalThreads(threads);
  return simd::SetActiveIsaFromString(flags.GetString("simd", "auto"));
}

}  // namespace pup
