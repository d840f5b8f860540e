// AVX2 backend: 8-float lanes. Compiled with -mavx2 -ffp-contract=off
// (and only this file is), guarded so a build without PUP_HAVE_AVX2
// simply omits it.
//
// Determinism notes (docs/simd.md):
//  * Never FMA — every product rounds before the add, matching scalar.
//    (-mfma is deliberately absent and contraction is off, so the
//    compiler cannot fuse the mul/add intrinsics either.)
//  * GEMM-family kernels vectorize across output columns with one
//    accumulator per output element — bitwise-identical to scalar.
//  * The one f32 dot (DotRows) keeps 8 lane accumulators per row; tails
//    enter as zero-padded lanes via maskload, and the final reduction
//    adds lanes 0..7 sequentially onto the row's seed. Rows go in blocks
//    of 8: an 8x8 transpose, then 8 vector adds in lane order onto the
//    block's seeds, performs that reduction for 8 rows at once; leftover
//    rows reduce one at a time. Reproducible at any --threads for this
//    lane width; not bitwise-equal to other widths.
//  * Row pointers handed in by kernels.cc are 64-byte aligned whenever
//    the row is wider than one float (Matrix layout contract), so the
//    full-lane loops use aligned loads; only tails use maskload, which
//    tolerates any alignment and never faults on masked-out lanes.
#if defined(PUP_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "la/simd/backend.h"
#include "la/simd/simd_math.h"

namespace pup::la::simd {
namespace {

constexpr size_t kW = 8;

// First t entries -1 (load), rest 0 (skip): TailMask(t) reads at offset
// 8 - t, yielding t live lanes.
alignas(32) constexpr int32_t kMaskTable[16] = {-1, -1, -1, -1, -1, -1, -1,
                                               -1, 0,  0,  0,  0,  0,  0,
                                               0,  0};

inline __m256i TailMask(size_t t) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + (kW - t)));
}

// Pinned-order lane reduction: lanes 0..7 added sequentially onto `s`,
// the row's seed — THE accumulation-order contract for this lane width.
inline float LaneSum(__m256 acc, float s) {
  alignas(32) float lanes[kW];
  _mm256_store_ps(lanes, acc);
  for (size_t l = 0; l < kW; ++l) s += lanes[l];
  return s;
}

// seed + dot product of two rows of logical length k: full aligned lanes,
// then one zero-padded masked tail, then the pinned lane reduction.
inline float RowDotOne(const float* x, const float* y, size_t k, float seed) {
  __m256 acc = _mm256_setzero_ps();
  size_t p = 0;
  for (; p + kW <= k; p += kW) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_load_ps(x + p), _mm256_load_ps(y + p)));
  }
  const size_t t = k - p;
  if (t != 0) {
    const __m256i m = TailMask(t);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_maskload_ps(x + p, m),
                                           _mm256_maskload_ps(y + p, m)));
  }
  return LaneSum(acc, seed);
}

// LaneSum for 8 rows at once. An 8x8 in-register transpose moves lane l
// of row r's accumulator to lane r of vector l; adding vectors 0..7 in
// order onto `s`, the rows' seeds, then gives every row seed + lane 0 +
// lane 1 + ... + lane 7 — LaneSum's exact sequence of adds.
inline __m256 BlockLaneSum(const __m256 (&acc)[kW], __m256 s) {
  __m256 a[kW], b[kW];
  // Interleave rows in pairs (32-bit), then pairs in pairs (64-bit):
  // 128-bit half q of a[4g + j] holds lane 4q + j of rows 4g..4g+3.
#pragma GCC unroll 4
  for (size_t r = 0; r < kW; r += 2) {
    b[r] = _mm256_unpacklo_ps(acc[r], acc[r + 1]);
    b[r + 1] = _mm256_unpackhi_ps(acc[r], acc[r + 1]);
  }
#pragma GCC unroll 2
  for (size_t g = 0; g < kW; g += 4) {
    const __m256d b0 = _mm256_castps_pd(b[g]);
    const __m256d b1 = _mm256_castps_pd(b[g + 1]);
    const __m256d b2 = _mm256_castps_pd(b[g + 2]);
    const __m256d b3 = _mm256_castps_pd(b[g + 3]);
    a[g] = _mm256_castpd_ps(_mm256_unpacklo_pd(b0, b2));
    a[g + 1] = _mm256_castpd_ps(_mm256_unpackhi_pd(b0, b2));
    a[g + 2] = _mm256_castpd_ps(_mm256_unpacklo_pd(b1, b3));
    a[g + 3] = _mm256_castpd_ps(_mm256_unpackhi_pd(b1, b3));
  }
  // Join the halves: b[l] holds lane l of rows 0..7, in row order.
#pragma GCC unroll 4
  for (size_t j = 0; j < 4; ++j) {
    b[j] = _mm256_permute2f128_ps(a[j], a[4 + j], 0x20);
    b[4 + j] = _mm256_permute2f128_ps(a[j], a[4 + j], 0x31);
  }
#pragma GCC unroll 8
  for (size_t l = 0; l < kW; ++l) s = _mm256_add_ps(s, b[l]);
  return s;
}

// exp(x) for x <= 0 (see simd_math.h). NaN lanes produce garbage that
// callers overwrite via their NaN-passthrough blend.
inline __m256 ExpNegPs(__m256 x) {
  x = _mm256_max_ps(x, _mm256_set1_ps(kExpLowClamp));
  __m256 fx = _mm256_mul_ps(x, _mm256_set1_ps(kLog2E));
  fx = _mm256_round_ps(fx, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(kExpC1)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(kExpC2)));
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(kExpP0);
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(kExpP1));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(kExpP2));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(kExpP3));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(kExpP4));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(kExpP5));
  y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), x),
                    _mm256_set1_ps(1.0f));
  __m256i n = _mm256_cvtps_epi32(fx);
  n = _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

inline __m256 SigmoidPs(__m256 v) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 absv = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
  const __m256 e = ExpNegPs(_mm256_sub_ps(zero, absv));
  const __m256 r = _mm256_div_ps(one, _mm256_add_ps(one, e));
  // v >= 0 ? 1/(1+e) : e/(1+e); NaN inputs propagate unchanged so the
  // numeric guard sees them, exactly like libm.
  __m256 out = _mm256_blendv_ps(_mm256_mul_ps(e, r), r,
                                _mm256_cmp_ps(v, zero, _CMP_GE_OQ));
  return _mm256_blendv_ps(out, v, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
}

inline __m256 TanhPs(__m256 v) {
  const __m256 x = _mm256_max_ps(
      _mm256_set1_ps(-kTanhClamp),
      _mm256_min_ps(_mm256_set1_ps(kTanhClamp), v));
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(kTanhAlpha13);
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhAlpha11));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhAlpha9));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhAlpha7));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhAlpha5));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhAlpha3));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhAlpha1));
  p = _mm256_mul_ps(p, x);
  __m256 q = _mm256_set1_ps(kTanhBeta6);
  q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(kTanhBeta4));
  q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(kTanhBeta2));
  q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(kTanhBeta0));
  __m256 out = _mm256_div_ps(p, q);
  // Identity window (tanh(x) == x in float) and NaN passthrough.
  const __m256 absv = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
  out = _mm256_blendv_ps(
      out, v, _mm256_cmp_ps(absv, _mm256_set1_ps(kTanhTiny), _CMP_LT_OQ));
  return _mm256_blendv_ps(out, v, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
}

void GemmRows(const float* a, size_t a_stride, const float* b,
              size_t b_stride, float* out, size_t out_stride, size_t lo,
              size_t hi, size_t k, size_t /*n*/, size_t nw) {
  for (size_t i = lo; i < hi; ++i) {
    const float* arow = a + i * a_stride;
    float* orow = out + i * out_stride;
    size_t j = 0;
    // Four vectors (32 columns) per block: the broadcast of a(i,p)
    // amortizes across 32 output columns while each out(i,j) still sums
    // its products in exact p order (one accumulator per element).
    for (; j + 4 * kW <= nw; j += 4 * kW) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (size_t p = 0; p < k; ++p) {
        const __m256 av = _mm256_set1_ps(arow[p]);
        const float* bp = b + p * b_stride + j;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_load_ps(bp)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_load_ps(bp + kW)));
        acc2 = _mm256_add_ps(acc2,
                             _mm256_mul_ps(av, _mm256_load_ps(bp + 2 * kW)));
        acc3 = _mm256_add_ps(acc3,
                             _mm256_mul_ps(av, _mm256_load_ps(bp + 3 * kW)));
      }
      _mm256_store_ps(orow + j, acc0);
      _mm256_store_ps(orow + j + kW, acc1);
      _mm256_store_ps(orow + j + 2 * kW, acc2);
      _mm256_store_ps(orow + j + 3 * kW, acc3);
    }
    for (; j + kW <= nw; j += kW) {
      __m256 acc = _mm256_setzero_ps();
      for (size_t p = 0; p < k; ++p) {
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(arow[p]),
                               _mm256_load_ps(b + p * b_stride + j)));
      }
      _mm256_store_ps(orow + j, acc);
    }
    // nw < kW only for single-column outputs (nw == 1): scalar remainder.
    for (; j < nw; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += arow[p] * b[p * b_stride + j];
      orow[j] = acc;
    }
  }
}

void GemmTransARows(const float* a, size_t a_stride, const float* b,
                    size_t b_stride, float* out, size_t out_stride, size_t lo,
                    size_t hi, size_t k, size_t /*n*/, size_t nw) {
  for (size_t i = lo; i < hi; ++i) {
    float* orow = out + i * out_stride;
    size_t j = 0;
    for (; j + kW <= nw; j += kW) {
      __m256 acc = _mm256_setzero_ps();
      for (size_t p = 0; p < k; ++p) {
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(a[p * a_stride + i]),
                               _mm256_load_ps(b + p * b_stride + j)));
      }
      _mm256_store_ps(orow + j, acc);
    }
    for (; j < nw; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) {
        acc += a[p * a_stride + i] * b[p * b_stride + j];
      }
      orow[j] = acc;
    }
  }
}

// Blocks of 8 rows: one accumulator per row, fed exactly as RowDotOne
// feeds its own, then one BlockLaneSum. Rows left after the last block
// take RowDotOne.
void DotRows(const float* x, size_t x_stride, const float* y, size_t y_stride,
             const float* seed, float* out, size_t lo, size_t hi, size_t d) {
  size_t i = lo;
  for (; i + kW <= hi; i += kW) {
    const float* xb = x + i * x_stride;
    const float* yb = y + i * y_stride;
    __m256 acc[kW];
#pragma GCC unroll 8
    for (size_t r = 0; r < kW; ++r) acc[r] = _mm256_setzero_ps();
    size_t p = 0;
    for (; p + kW <= d; p += kW) {
#pragma GCC unroll 8
      for (size_t r = 0; r < kW; ++r) {
        const __m256 xv = _mm256_load_ps(xb + r * x_stride + p);
        const __m256 yv = _mm256_load_ps(yb + r * y_stride + p);
        acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(xv, yv));
      }
    }
    const size_t t = d - p;
    if (t != 0) {
      const __m256i m = TailMask(t);
#pragma GCC unroll 8
      for (size_t r = 0; r < kW; ++r) {
        const __m256 xv = _mm256_maskload_ps(xb + r * x_stride + p, m);
        const __m256 yv = _mm256_maskload_ps(yb + r * y_stride + p, m);
        acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(xv, yv));
      }
    }
    const __m256 s =
        seed != nullptr ? _mm256_loadu_ps(seed + i) : _mm256_setzero_ps();
    _mm256_storeu_ps(out + i, BlockLaneSum(acc, s));
  }
  for (; i < hi; ++i) {
    out[i] = RowDotOne(x + i * x_stride, y + i * y_stride, d,
                       seed != nullptr ? seed[i] : 0.0f);
  }
}

void Axpy(float alpha, const float* x, float* out, size_t lo, size_t hi) {
  const __m256 av = _mm256_set1_ps(alpha);
  for (size_t i = lo; i + kW <= hi; i += kW) {
    _mm256_store_ps(out + i,
                    _mm256_add_ps(_mm256_load_ps(out + i),
                                  _mm256_mul_ps(av, _mm256_load_ps(x + i))));
  }
}

void Sigmoid(const float* x, float* out, size_t lo, size_t hi) {
  for (size_t i = lo; i + kW <= hi; i += kW) {
    _mm256_store_ps(out + i, SigmoidPs(_mm256_load_ps(x + i)));
  }
}

void Tanh(const float* x, float* out, size_t lo, size_t hi) {
  for (size_t i = lo; i + kW <= hi; i += kW) {
    _mm256_store_ps(out + i, TanhPs(_mm256_load_ps(x + i)));
  }
}

size_t FindNonFinite(const float* x, size_t n) {
  // Same exponent-field trick as the scalar scan, on 8 integer lanes:
  // (bits & exp_mask) + exp_ulp carries into the sign bit iff the float
  // is NaN/Inf, so a movemask over an OR-accumulated block gives the
  // verdict; a dirty block is rescanned element-wise for the index.
  const __m256i exp_mask = _mm256_set1_epi32(0x7f800000);
  const __m256i exp_ulp = _mm256_set1_epi32(0x00800000);
  constexpr size_t kBlock = 8 * kW;
  size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    __m256i acc = _mm256_setzero_si256();
    for (size_t v = 0; v < kBlock; v += kW) {
      const __m256i bits = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(x + i + v));
      acc = _mm256_or_si256(
          acc, _mm256_add_epi32(_mm256_and_si256(bits, exp_mask), exp_ulp));
    }
    if (_mm256_movemask_ps(_mm256_castsi256_ps(acc)) == 0) continue;
    for (size_t j = i; j < i + kBlock; ++j) {
      if (!std::isfinite(x[j])) return j;
    }
  }
  for (; i < n; ++i) {
    if (!std::isfinite(x[i])) return i;
  }
  return n;
}

// Exact int32 horizontal sum; order is irrelevant because integer
// addition is associative (the quantized-path determinism argument).
inline int32_t HSumI32(__m256i v) {
  alignas(32) int32_t lanes[kW];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  int32_t s = 0;
  for (size_t l = 0; l < kW; ++l) s += lanes[l];
  return s;
}

// Quantized fastscan: 16 code bytes per step, widened to int16 and
// multiply-accumulated with vpmaddwd. The widening matters: vpmaddubsw
// would saturate (255 * 127 * 2 > INT16_MAX) and silently corrupt
// scores, while the int16 x int16 -> int32 pairwise madd is exact for
// our operand range (|code * query| <= 255 * 127).
//
// The query is row-invariant, so it is widened to int16 ONCE per block
// into a stack staging buffer (16 code bytes -> 16 int16 -> one aligned
// 256-bit load per step in the row loop); rows wider than the staging
// cap fall back to widening in the loop. Exact int32 accumulation is
// associative, so the hoist cannot change any result.
constexpr size_t kQueryStageBytes = 1024;

void QdotI8Rows(const uint8_t* codes, size_t stride, size_t bytes,
                const int8_t* query, int32_t* out, size_t lo, size_t hi) {
  alignas(32) int16_t wq[kQueryStageBytes];
  if (bytes <= kQueryStageBytes) {
    for (size_t b = 0; b < bytes; b += 16) {
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(wq + b),
          _mm256_cvtepi8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(query + b))));
    }
    for (size_t i = lo; i < hi; ++i) {
      const uint8_t* crow = codes + i * stride;
      __m256i acc = _mm256_setzero_si256();
      for (size_t b = 0; b < bytes; b += 16) {
        const __m128i c =
            _mm_load_si128(reinterpret_cast<const __m128i*>(crow + b));
        acc = _mm256_add_epi32(
            acc,
            _mm256_madd_epi16(
                _mm256_cvtepu8_epi16(c),
                _mm256_load_si256(reinterpret_cast<const __m256i*>(wq + b))));
      }
      out[i] = HSumI32(acc);
    }
    return;
  }
  for (size_t i = lo; i < hi; ++i) {
    const uint8_t* crow = codes + i * stride;
    __m256i acc = _mm256_setzero_si256();
    for (size_t b = 0; b < bytes; b += 16) {
      const __m128i c =
          _mm_load_si128(reinterpret_cast<const __m128i*>(crow + b));
      const __m128i q =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(query + b));
      acc = _mm256_add_epi32(
          acc, _mm256_madd_epi16(_mm256_cvtepu8_epi16(c),
                                 _mm256_cvtepi8_epi16(q)));
    }
    out[i] = HSumI32(acc);
  }
}

void QdotI4Rows(const uint8_t* codes, size_t stride, size_t bytes,
                const int8_t* query_even, const int8_t* query_odd,
                int32_t* out, size_t lo, size_t hi) {
  const __m128i low_mask = _mm_set1_epi8(0x0f);
  alignas(32) int16_t we[kQueryStageBytes];
  alignas(32) int16_t wo[kQueryStageBytes];
  if (bytes <= kQueryStageBytes) {
    for (size_t b = 0; b < bytes; b += 16) {
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(we + b),
          _mm256_cvtepi8_epi16(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(query_even + b))));
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(wo + b),
          _mm256_cvtepi8_epi16(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(query_odd + b))));
    }
    for (size_t i = lo; i < hi; ++i) {
      const uint8_t* crow = codes + i * stride;
      __m256i acc = _mm256_setzero_si256();
      for (size_t b = 0; b < bytes; b += 16) {
        const __m128i packed =
            _mm_load_si128(reinterpret_cast<const __m128i*>(crow + b));
        const __m128i clo = _mm_and_si128(packed, low_mask);
        const __m128i chi =
            _mm_and_si128(_mm_srli_epi16(packed, 4), low_mask);
        acc = _mm256_add_epi32(
            acc,
            _mm256_madd_epi16(
                _mm256_cvtepu8_epi16(clo),
                _mm256_load_si256(reinterpret_cast<const __m256i*>(we + b))));
        acc = _mm256_add_epi32(
            acc,
            _mm256_madd_epi16(
                _mm256_cvtepu8_epi16(chi),
                _mm256_load_si256(reinterpret_cast<const __m256i*>(wo + b))));
      }
      out[i] = HSumI32(acc);
    }
    return;
  }
  for (size_t i = lo; i < hi; ++i) {
    const uint8_t* crow = codes + i * stride;
    __m256i acc = _mm256_setzero_si256();
    for (size_t b = 0; b < bytes; b += 16) {
      const __m128i packed =
          _mm_load_si128(reinterpret_cast<const __m128i*>(crow + b));
      const __m128i clo = _mm_and_si128(packed, low_mask);
      const __m128i chi = _mm_and_si128(_mm_srli_epi16(packed, 4), low_mask);
      const __m128i qe =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(query_even + b));
      const __m128i qo =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(query_odd + b));
      acc = _mm256_add_epi32(
          acc, _mm256_madd_epi16(_mm256_cvtepu8_epi16(clo),
                                 _mm256_cvtepi8_epi16(qe)));
      acc = _mm256_add_epi32(
          acc, _mm256_madd_epi16(_mm256_cvtepu8_epi16(chi),
                                 _mm256_cvtepi8_epi16(qo)));
    }
    out[i] = HSumI32(acc);
  }
}

// Pinned-16-virtual-lane dot: two 8-float registers act as virtual lanes
// 0..7 / 8..15, tails enter via zero-masked loads (dead lanes add
// +0.0f), and the reduction walks all 16 lanes sequentially — bitwise
// matching the scalar reference on every input.
void RerankDotRows(const float* items, size_t stride, const float* query,
                   const uint32_t* ids, float* out, size_t lo, size_t hi,
                   size_t d) {
  constexpr size_t kVL = 16;
  for (size_t j = lo; j < hi; ++j) {
    const float* row = items + static_cast<size_t>(ids[j]) * stride;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    size_t p = 0;
    for (; p + kVL <= d; p += kVL) {
      // Rows are 64-byte aligned by the Matrix layout; the query is any
      // caller buffer, so its loads are unaligned.
      acc0 = _mm256_add_ps(
          acc0, _mm256_mul_ps(_mm256_load_ps(row + p),
                              _mm256_loadu_ps(query + p)));
      acc1 = _mm256_add_ps(
          acc1, _mm256_mul_ps(_mm256_load_ps(row + p + kW),
                              _mm256_loadu_ps(query + p + kW)));
    }
    const size_t t = d - p;
    if (t != 0) {
      const __m256i m0 = TailMask(t < kW ? t : kW);
      acc0 = _mm256_add_ps(
          acc0, _mm256_mul_ps(_mm256_maskload_ps(row + p, m0),
                              _mm256_maskload_ps(query + p, m0)));
      const __m256i m1 = TailMask(t > kW ? t - kW : 0);
      acc1 = _mm256_add_ps(
          acc1, _mm256_mul_ps(_mm256_maskload_ps(row + p + kW, m1),
                              _mm256_maskload_ps(query + p + kW, m1)));
    }
    alignas(32) float lanes[kVL];
    _mm256_store_ps(lanes, acc0);
    _mm256_store_ps(lanes + kW, acc1);
    float s = 0.0f;
    for (size_t l = 0; l < kVL; ++l) s += lanes[l];
    out[j] = s;
  }
}

}  // namespace

const Backend& Avx2Backend() {
  static const Backend table = {
      pup::simd::Isa::kAvx2,
      "avx2",
      kW,
      obs::Registry::Global().GetCounter("simd/dispatch/avx2"),
      &GemmRows,
      &GemmTransARows,
      &DotRows,
      &Axpy,
      &Sigmoid,
      &Tanh,
      &FindNonFinite,
      &QdotI8Rows,
      &QdotI4Rows,
      &RerankDotRows,
  };
  return table;
}

}  // namespace pup::la::simd

#endif  // PUP_HAVE_AVX2
