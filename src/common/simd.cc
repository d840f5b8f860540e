#include "common/simd.h"

#include <atomic>

#include "common/check.h"
#include "obs/registry.h"

namespace pup::simd {
namespace {

// -1 = not yet resolved; otherwise an Isa value. Relaxed is enough: the
// ISA is set during single-threaded startup and only read afterwards.
std::atomic<int> g_active_isa{-1};

// Mirrors the selection into the obs registry so every metrics dump and
// bench summary is attributable to the hardware path that produced it:
// gauge simd/lane_width plus a one-hot simd/isa/<name> family.
void ExportActiveIsa(Isa isa) {
  auto& reg = obs::Registry::Global();
  reg.GetGauge("simd/lane_width")->Set(static_cast<int64_t>(IsaLaneWidth(isa)));
  for (int i = 0; i < kNumIsas; ++i) {
    const Isa candidate = static_cast<Isa>(i);
    reg.GetGauge(std::string("simd/isa/") + IsaName(candidate))
        ->Set(candidate == isa ? 1 : 0);
  }
}

}  // namespace

bool IsaSupported(Isa isa) {
  switch (isa) {
    case Isa::kOff:
      return true;
    case Isa::kAvx2:
#if defined(PUP_HAVE_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

Isa DetectBestIsa() {
  for (int i = kNumIsas - 1; i > 0; --i) {
    const Isa isa = static_cast<Isa>(i);
    if (IsaSupported(isa)) return isa;
  }
  return Isa::kOff;
}

Isa ActiveIsa() {
  int v = g_active_isa.load(std::memory_order_relaxed);
  if (v < 0) {
    SetActiveIsa(DetectBestIsa());
    v = g_active_isa.load(std::memory_order_relaxed);
  }
  return static_cast<Isa>(v);
}

void SetActiveIsa(Isa isa) {
  PUP_CHECK(IsaSupported(isa));
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  ExportActiveIsa(isa);
}

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kOff:
      return "off";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

size_t IsaLaneWidth(Isa isa) {
  switch (isa) {
    case Isa::kOff:
      return 1;
    case Isa::kAvx2:
      return 8;
  }
  return 1;
}

Status SetActiveIsaFromString(const std::string& value) {
  if (value == "auto") {
    SetActiveIsa(DetectBestIsa());
    return Status::OK();
  }
  for (int i = 0; i < kNumIsas; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if (value != IsaName(isa)) continue;
    if (!IsaSupported(isa)) {
      return Status::InvalidArgument(
          std::string("--simd=") + value +
          " is not supported by this build/CPU (try --simd=auto)");
    }
    SetActiveIsa(isa);
    return Status::OK();
  }
  return Status::InvalidArgument(
      "unknown --simd value '" + value +
      "' (expected auto, off, or avx2)");
}

}  // namespace pup::simd
