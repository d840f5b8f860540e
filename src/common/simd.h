// Runtime SIMD instruction-set selection — the process-wide switch the
// la::simd kernel backends dispatch on.
//
// The active ISA is chosen once at startup: `auto` probes the CPU
// (CPUID-backed __builtin_cpu_supports on x86; other architectures run
// the scalar backend) and picks the widest supported backend; the global
// `--simd={auto,avx2,off}` flag pins it explicitly. `off` is the
// golden path — plain scalar kernels, bitwise-identical to the pre-SIMD
// library.
//
// Determinism contract (docs/simd.md): results are a pure function of
// (lane width, --threads-independent chunking). Changing the active ISA
// may legally change reduction and transcendental results within
// documented bounds; changing --threads at a fixed ISA may not change
// anything.
#pragma once

#include <cstddef>
#include <string>

#include "common/status.h"

namespace pup::simd {

/// Kernel instruction sets, narrowest first. kOff is the scalar golden
/// path; the vector entries exist on every build but fall back to scalar
/// when the host or compiler lacks them.
enum class Isa : int {
  kOff = 0,
  kAvx2 = 1,
};
inline constexpr int kNumIsas = 2;

/// True when this process can execute `isa` (compiled in AND supported
/// by the host CPU). kOff is always supported.
bool IsaSupported(Isa isa);

/// Widest ISA supported here — what `--simd=auto` resolves to.
Isa DetectBestIsa();

/// The ISA all la kernels currently dispatch to. Defaults to
/// DetectBestIsa() on first query.
Isa ActiveIsa();

/// Pins the active ISA. PUP_CHECKs that `isa` is supported. Exposed for
/// tests and ApplyRuntimeFlags; not thread-safe against in-flight kernels
/// (set it at startup, before parallel work).
void SetActiveIsa(Isa isa);

/// Lowercase name: "off", "avx2".
const char* IsaName(Isa isa);

/// Vector width in floats: 1, 8.
size_t IsaLaneWidth(Isa isa);

/// Parses a --simd flag value ("auto" or an IsaName). Errors on unknown
/// names and on ISAs this process cannot execute.
Status SetActiveIsaFromString(const std::string& value);

}  // namespace pup::simd
