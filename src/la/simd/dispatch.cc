// Backend resolution: maps the process-wide active ISA (common/simd.h)
// to its kernel table. ISAs that were not compiled into this binary are
// wired to the scalar table here — SetActiveIsa refuses them anyway, but
// ForIsa() is also a bench/test entry point and must never hand out a
// null slot.
#include "la/simd/backend.h"

#include "common/check.h"

namespace pup::la::simd {
namespace {

const Backend* const* IsaTable() {
  static const Backend* table[pup::simd::kNumIsas] = {
      &ScalarBackend(),
#if defined(PUP_HAVE_AVX2)
      &Avx2Backend(),
#else
      &ScalarBackend(),
#endif
  };
  return table;
}

}  // namespace

const Backend& ForIsa(pup::simd::Isa isa) {
  const int i = static_cast<int>(isa);
  PUP_CHECK(i >= 0 && i < pup::simd::kNumIsas);
  return *IsaTable()[i];
}

// PUP_HOT: one relaxed atomic load, one table index, one counter bump.
const Backend& Active() {
  const Backend& be = ForIsa(pup::simd::ActiveIsa());
  be.dispatch_count->Add(1);
  return be;
}

}  // namespace pup::la::simd
