// la::simd backend vtable — one table of kernel-inner-loop function
// pointers per instruction set, resolved once per kernel call by the
// public kernels in la/kernels.cc.
//
// The split of responsibilities (docs/simd.md):
//  * kernels.cc keeps everything semantic: shape checks, ResizeNoZero,
//    obs counters, and the ParallelFor chunking — so chunk boundaries
//    (and therefore determinism-vs-threads) are identical for every
//    backend.
//  * Backends implement only the loop bodies over a row block [lo, hi)
//    or a flat padded range [lo, hi), on raw pointers + strides.
//
// Determinism classes (enforced by tests/simd_test.cc):
//  * Order-preserving: gemm_rows / gemm_ta_rows vectorize across the
//    output columns j — each out(i,j) sees the exact scalar operation
//    sequence (mul then add per p, never FMA), so every backend is
//    bitwise-identical to scalar.
//  * Lane-reduced: dot_rows, the one f32 dot at the backend's lane width
//    (RowDot, RowDotDiff, GemmTransB and the f32 ScoreItems* entries all
//    call it), accumulates in W lane accumulators (tail elements enter as
//    zero-padded lanes) and reduces them in pinned lane order 0..W-1,
//    starting from the row's seed (0.0f when there is none). Vector
//    backends reduce W rows at once — a WxW transpose of their
//    accumulators, then W vector adds in lane order onto the rows' seeds
//    — which is each row's sequential lane sum, add for add. Scalar is
//    the W = 1 case: the seed, then each product in element order.
//    Bitwise-reproducible for a fixed lane width at any --threads and
//    any row range split, not bitwise-equal across lane widths.
//  * Approximate elementwise: sigmoid / tanh use polynomial / exp2
//    approximations under a bounded-ULP contract on vector backends;
//    the scalar backend keeps libm exactly.
//  * Exact scans: find_nonfinite returns the same verdict and index on
//    every backend.
//  * Exact integer: qdot_i8_rows / qdot_i4_rows accumulate quantized
//    code products in int32 — integer addition is associative, so every
//    backend and lane order is bitwise-identical (docs/quantization.md).
//  * Pinned 16 virtual lanes: rerank_dot_rows accumulates f32 dots in a
//    FIXED 16-lane shape regardless of the hardware width, reduced in
//    lane order 0..15 — the one f32 dot whose result is bitwise-equal
//    across every backend (the quantized re-rank stage depends on it).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.h"
#include "obs/registry.h"

namespace pup::la::simd {

/// Inner-loop implementations for one ISA. All pointers are non-null on
/// every table (unsupported ISAs simply reuse the scalar entries, the
/// dispatcher never hands them out). Strides are in floats. Row-block
/// functions process output rows [lo, hi); flat functions process the
/// padded flat range [lo, hi), whose bounds the caller guarantees are
/// multiples of the 16-float alignment quantum (or cover the whole
/// buffer).
struct Backend {
  pup::simd::Isa isa;
  const char* name;
  size_t lane_width;
  /// Cached handle for the per-ISA dispatch counter
  /// ("simd/dispatch/<name>"); bumped by Active() on every kernel call.
  obs::Counter* dispatch_count;

  // out(i, j) = sum_p a(i, p) * b(p, j) for i in [lo, hi). Scalar
  // writes j in [0, n); vector backends write j in [0, nw) (the padded
  // row width, == b/out stride) so the column loop is whole lanes.
  void (*gemm_rows)(const float* a, size_t a_stride, const float* b,
                    size_t b_stride, float* out, size_t out_stride, size_t lo,
                    size_t hi, size_t k, size_t n, size_t nw);
  // out(i, j) = sum_p a(p, i) * b(p, j) for i in [lo, hi); a is (k x m).
  void (*gemm_ta_rows)(const float* a, size_t a_stride, const float* b,
                       size_t b_stride, float* out, size_t out_stride,
                       size_t lo, size_t hi, size_t k, size_t n, size_t nw);
  // out[i] = seed[i] + dot(x row i, y row i, d) for i in [lo, hi), the
  // seed starting the accumulation (0.0f when `seed` is null). A zero
  // stride repeats one row: y_stride = 0 dots every x row with one y.
  // Vector backends take the rows W at a time from lo (one transposed
  // lane reduction per block) and the rest one by one; each out[i] is
  // the same float whichever way [lo, hi) is split.
  void (*dot_rows)(const float* x, size_t x_stride, const float* y,
                   size_t y_stride, const float* seed, float* out, size_t lo,
                   size_t hi, size_t d);
  // out[i] += alpha * x[i] over the flat padded range [lo, hi).
  void (*axpy)(float alpha, const float* x, float* out, size_t lo, size_t hi);
  // out[i] = sigmoid(x[i]) / tanh(x[i]) over the flat padded [lo, hi).
  void (*sigmoid)(const float* x, float* out, size_t lo, size_t hi);
  void (*tanh)(const float* x, float* out, size_t lo, size_t hi);
  // Index of the first non-finite float in the contiguous run x[0, n),
  // or n when all are finite.
  size_t (*find_nonfinite)(const float* x, size_t n);

  // Quantized fastscan dots (docs/quantization.md). `stride` is the row
  // pitch in BYTES (a multiple of QuantizedTable::kRowAlignBytes);
  // `bytes` <= stride is the 16-byte-aligned prefix that covers the
  // logical columns — everything beyond it is pad zeros the kernel may
  // skip (int4 rows pack two columns per byte, so their prefix is half
  // the int8 one). Within the prefix, pad codes and the query beyond the
  // logical width are zero, so padded products contribute exactly zero.
  // Accumulation is exact int32, which is associative: kernels are free
  // to reorganise (hoist, block, vectorise) without changing any result.
  //
  // out[i] = sum_b codes(row i)[b] * query[b] over b in [0, bytes), for
  // i in [lo, hi). query holds at least `bytes` signed code values.
  void (*qdot_i8_rows)(const uint8_t* codes, size_t stride, size_t bytes,
                       const int8_t* query, int32_t* out, size_t lo,
                       size_t hi);
  // int4: byte b of a row packs column 2b (low nibble) and 2b+1 (high
  // nibble). query_even[b] multiplies the low nibble, query_odd[b] the
  // high one; each array holds at least `bytes` signed code values.
  void (*qdot_i4_rows)(const uint8_t* codes, size_t stride, size_t bytes,
                       const int8_t* query_even, const int8_t* query_odd,
                       int32_t* out, size_t lo, size_t hi);
  // out[j] = dot(items row ids[j], query, d) for j in [lo, hi), computed
  // in 16 virtual f32 lanes (tail enters zero-padded, dead lanes add
  // +0.0f) reduced in lane order 0..15 on EVERY backend. Tail loads are
  // masked / zero-copied, so pad values are never consumed; `items` must
  // be the 64-byte-aligned Matrix layout (rows load aligned), while
  // `query` is any readable buffer of d floats (loads are unaligned).
  void (*rerank_dot_rows)(const float* items, size_t stride,
                          const float* query, const uint32_t* ids, float* out,
                          size_t lo, size_t hi, size_t d);
};

/// Table for the process-wide active ISA (common/simd.h). Bumps the
/// backend's dispatch counter — call once per kernel invocation, outside
/// the parallel region.
const Backend& Active();

/// Table for a specific ISA; falls back to scalar when `isa` was not
/// compiled into this binary. Does not touch counters (bench/test use).
const Backend& ForIsa(pup::simd::Isa isa);

// Per-ISA table definitions (kernels_<isa>.cc). The PUP_HAVE_* macros
// come from CMake and mean "the compiler can target this ISA, so the
// backend file is in the build" (the per-file -m flags live on those
// files only); dispatch.cc wires absent slots to scalar.
const Backend& ScalarBackend();
#if defined(PUP_HAVE_AVX2)
const Backend& Avx2Backend();
#endif

}  // namespace pup::la::simd
