// AVX-512 backend: 16-float lanes. Compiled with -mavx512f
// -ffp-contract=off (only this file), and built only beside the AVX2
// backend. Its f32 kernels mirror kernels_avx2.cc — see that file and
// docs/simd.md for the determinism notes; the only structural
// differences are the lane width, the use of predicate masks
// (__mmask16) for tails, and the 16-row block of DotRows (a 16x16
// transpose instead of 8x8). The lane reduction is always sequential in
// lane order 0..15, never _mm512_reduce_add_ps, whose tree order is not
// the pinned one. The quantized slots hold AVX2's entries: AVX-512F has
// no 512-bit word multiply-add (that is AVX-512BW), and the re-rank
// dot's pinned 16 virtual lanes give the same bits at any width.
#if defined(PUP_HAVE_AVX512)

#include <immintrin.h>

#include <cmath>

#include "la/simd/backend.h"
#include "la/simd/simd_math.h"

namespace pup::la::simd {
namespace {

constexpr size_t kW = 16;

// All-ones masks. An intrinsic whose plain form passes an undefined
// vector as the masked-off source is written in its masked form with
// one of these: GCC 12 reports the undefined source as maybe-
// uninitialized once inlined here, and both forms compile to the same
// unmasked instruction.
constexpr __mmask16 kAll = 0xFFFF;
constexpr __mmask8 kAllPd = 0xFF;

// Pinned-order lane reduction: lanes 0..15 added sequentially onto `s`,
// the row's seed.
inline float LaneSum(__m512 acc, float s) {
  alignas(64) float lanes[kW];
  _mm512_store_ps(lanes, acc);
  for (size_t l = 0; l < kW; ++l) s += lanes[l];
  return s;
}

inline float RowDotOne(const float* x, const float* y, size_t k, float seed) {
  __m512 acc = _mm512_setzero_ps();
  size_t p = 0;
  for (; p + kW <= k; p += kW) {
    acc = _mm512_add_ps(
        acc, _mm512_mul_ps(_mm512_load_ps(x + p), _mm512_load_ps(y + p)));
  }
  const size_t t = k - p;
  if (t != 0) {
    const __mmask16 m = static_cast<__mmask16>((1u << t) - 1u);
    acc = _mm512_add_ps(acc,
                        _mm512_mul_ps(_mm512_maskz_loadu_ps(m, x + p),
                                      _mm512_maskz_loadu_ps(m, y + p)));
  }
  return LaneSum(acc, seed);
}

// LaneSum for 16 rows at once. A 16x16 in-register transpose moves lane
// l of row r's accumulator to lane r of vector l; adding vectors 0..15 in
// order onto `s`, the rows' seeds, then gives every row seed + lane 0 +
// lane 1 + ... + lane 15 — LaneSum's exact sequence of adds.
inline __m512 BlockLaneSum(const __m512 (&acc)[kW], __m512 s) {
  __m512 a[kW], b[kW];
  // Interleave rows in pairs (32-bit), then pairs in pairs (64-bit):
  // 128-bit block q of a[4g + j] holds lane 4q + j of rows 4g..4g+3.
#pragma GCC unroll 8
  for (size_t r = 0; r < kW; r += 2) {
    b[r] = _mm512_mask_unpacklo_ps(acc[r], kAll, acc[r], acc[r + 1]);
    b[r + 1] = _mm512_mask_unpackhi_ps(acc[r], kAll, acc[r], acc[r + 1]);
  }
#pragma GCC unroll 4
  for (size_t g = 0; g < kW; g += 4) {
    const __m512d b0 = _mm512_castps_pd(b[g]);
    const __m512d b1 = _mm512_castps_pd(b[g + 1]);
    const __m512d b2 = _mm512_castps_pd(b[g + 2]);
    const __m512d b3 = _mm512_castps_pd(b[g + 3]);
    a[g] = _mm512_castpd_ps(_mm512_mask_unpacklo_pd(b0, kAllPd, b0, b2));
    a[g + 1] = _mm512_castpd_ps(_mm512_mask_unpackhi_pd(b0, kAllPd, b0, b2));
    a[g + 2] = _mm512_castpd_ps(_mm512_mask_unpacklo_pd(b1, kAllPd, b1, b3));
    a[g + 3] = _mm512_castpd_ps(_mm512_mask_unpackhi_pd(b1, kAllPd, b1, b3));
  }
  // Gather 128-bit blocks across row groups twice; 0x88 takes blocks 0
  // and 2 of each source, 0xdd blocks 1 and 3. Afterwards a[l] holds
  // lane l of rows 0..15, in row order.
#pragma GCC unroll 2
  for (size_t h = 0; h < kW; h += 8) {
#pragma GCC unroll 4
    for (size_t j = 0; j < 4; ++j) {
      const __m512 x = a[h + j];
      const __m512 y = a[h + 4 + j];
      b[h + j] = _mm512_mask_shuffle_f32x4(x, kAll, x, y, 0x88);
      b[h + 4 + j] = _mm512_mask_shuffle_f32x4(x, kAll, x, y, 0xdd);
    }
  }
#pragma GCC unroll 8
  for (size_t j = 0; j < 8; ++j) {
    const __m512 x = b[j];
    const __m512 y = b[8 + j];
    a[j] = _mm512_mask_shuffle_f32x4(x, kAll, x, y, 0x88);
    a[8 + j] = _mm512_mask_shuffle_f32x4(x, kAll, x, y, 0xdd);
  }
#pragma GCC unroll 16
  for (size_t l = 0; l < kW; ++l) s = _mm512_add_ps(s, a[l]);
  return s;
}

// exp(x) for x <= 0; identical polynomial and operation order to the
// AVX2 version (simd_math.h), so elementwise results match across vector
// ISAs bitwise.
inline __m512 ExpNegPs(__m512 x) {
  x = _mm512_mask_max_ps(x, kAll, x, _mm512_set1_ps(kExpLowClamp));
  __m512 fx = _mm512_mul_ps(x, _mm512_set1_ps(kLog2E));
  fx = _mm512_mask_roundscale_ps(fx, kAll, fx,
                                 _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm512_sub_ps(x, _mm512_mul_ps(fx, _mm512_set1_ps(kExpC1)));
  x = _mm512_sub_ps(x, _mm512_mul_ps(fx, _mm512_set1_ps(kExpC2)));
  const __m512 z = _mm512_mul_ps(x, x);
  __m512 y = _mm512_set1_ps(kExpP0);
  y = _mm512_add_ps(_mm512_mul_ps(y, x), _mm512_set1_ps(kExpP1));
  y = _mm512_add_ps(_mm512_mul_ps(y, x), _mm512_set1_ps(kExpP2));
  y = _mm512_add_ps(_mm512_mul_ps(y, x), _mm512_set1_ps(kExpP3));
  y = _mm512_add_ps(_mm512_mul_ps(y, x), _mm512_set1_ps(kExpP4));
  y = _mm512_add_ps(_mm512_mul_ps(y, x), _mm512_set1_ps(kExpP5));
  y = _mm512_add_ps(_mm512_add_ps(_mm512_mul_ps(y, z), x),
                    _mm512_set1_ps(1.0f));
  __m512i n = _mm512_mask_cvtps_epi32(_mm512_castps_si512(fx), kAll, fx);
  n = _mm512_add_epi32(n, _mm512_set1_epi32(127));
  n = _mm512_mask_slli_epi32(n, kAll, n, 23);
  return _mm512_mul_ps(y, _mm512_castsi512_ps(n));
}

inline __m512 SigmoidPs(__m512 v) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 absv = _mm512_abs_ps(v);
  const __m512 e = ExpNegPs(_mm512_sub_ps(zero, absv));
  const __m512 r = _mm512_div_ps(one, _mm512_add_ps(one, e));
  const __mmask16 ge = _mm512_cmp_ps_mask(v, zero, _CMP_GE_OQ);
  __m512 out = _mm512_mask_blend_ps(ge, _mm512_mul_ps(e, r), r);
  const __mmask16 nan = _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
  return _mm512_mask_blend_ps(nan, out, v);
}

inline __m512 TanhPs(__m512 v) {
  const __m512 lo = _mm512_set1_ps(-kTanhClamp);
  const __m512 hi = _mm512_set1_ps(kTanhClamp);
  const __m512 x =
      _mm512_mask_max_ps(lo, kAll, lo, _mm512_mask_min_ps(hi, kAll, hi, v));
  const __m512 x2 = _mm512_mul_ps(x, x);
  __m512 p = _mm512_set1_ps(kTanhAlpha13);
  p = _mm512_add_ps(_mm512_mul_ps(p, x2), _mm512_set1_ps(kTanhAlpha11));
  p = _mm512_add_ps(_mm512_mul_ps(p, x2), _mm512_set1_ps(kTanhAlpha9));
  p = _mm512_add_ps(_mm512_mul_ps(p, x2), _mm512_set1_ps(kTanhAlpha7));
  p = _mm512_add_ps(_mm512_mul_ps(p, x2), _mm512_set1_ps(kTanhAlpha5));
  p = _mm512_add_ps(_mm512_mul_ps(p, x2), _mm512_set1_ps(kTanhAlpha3));
  p = _mm512_add_ps(_mm512_mul_ps(p, x2), _mm512_set1_ps(kTanhAlpha1));
  p = _mm512_mul_ps(p, x);
  __m512 q = _mm512_set1_ps(kTanhBeta6);
  q = _mm512_add_ps(_mm512_mul_ps(q, x2), _mm512_set1_ps(kTanhBeta4));
  q = _mm512_add_ps(_mm512_mul_ps(q, x2), _mm512_set1_ps(kTanhBeta2));
  q = _mm512_add_ps(_mm512_mul_ps(q, x2), _mm512_set1_ps(kTanhBeta0));
  __m512 out = _mm512_div_ps(p, q);
  const __m512 absv = _mm512_abs_ps(v);
  const __mmask16 tiny =
      _mm512_cmp_ps_mask(absv, _mm512_set1_ps(kTanhTiny), _CMP_LT_OQ);
  out = _mm512_mask_blend_ps(tiny, out, v);
  const __mmask16 nan = _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
  return _mm512_mask_blend_ps(nan, out, v);
}

void GemmRows(const float* a, size_t a_stride, const float* b,
              size_t b_stride, float* out, size_t out_stride, size_t lo,
              size_t hi, size_t k, size_t /*n*/, size_t nw) {
  for (size_t i = lo; i < hi; ++i) {
    const float* arow = a + i * a_stride;
    float* orow = out + i * out_stride;
    size_t j = 0;
    for (; j + 2 * kW <= nw; j += 2 * kW) {
      __m512 acc0 = _mm512_setzero_ps();
      __m512 acc1 = _mm512_setzero_ps();
      for (size_t p = 0; p < k; ++p) {
        const __m512 av = _mm512_set1_ps(arow[p]);
        const float* bp = b + p * b_stride + j;
        acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(av, _mm512_load_ps(bp)));
        acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(av, _mm512_load_ps(bp + kW)));
      }
      _mm512_store_ps(orow + j, acc0);
      _mm512_store_ps(orow + j + kW, acc1);
    }
    for (; j + kW <= nw; j += kW) {
      __m512 acc = _mm512_setzero_ps();
      for (size_t p = 0; p < k; ++p) {
        acc = _mm512_add_ps(
            acc, _mm512_mul_ps(_mm512_set1_ps(arow[p]),
                               _mm512_load_ps(b + p * b_stride + j)));
      }
      _mm512_store_ps(orow + j, acc);
    }
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
      __m512 acc = _mm512_setzero_ps();
      for (size_t p = 0; p < k; ++p) {
        acc = _mm512_add_ps(
            acc, _mm512_mul_ps(_mm512_set1_ps(a[p * a_stride + i]),
                               _mm512_load_ps(b + p * b_stride + j)));
      }
      _mm512_store_ps(orow + j, acc);
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

// Blocks of 16 rows: one accumulator per row, fed exactly as RowDotOne
// feeds its own, then one BlockLaneSum. Rows left after the last block
// take RowDotOne.
void DotRows(const float* x, size_t x_stride, const float* y, size_t y_stride,
             const float* seed, float* out, size_t lo, size_t hi, size_t d) {
  size_t i = lo;
  for (; i + kW <= hi; i += kW) {
    const float* xb = x + i * x_stride;
    const float* yb = y + i * y_stride;
    __m512 acc[kW];
#pragma GCC unroll 16
    for (size_t r = 0; r < kW; ++r) acc[r] = _mm512_setzero_ps();
    size_t p = 0;
    for (; p + kW <= d; p += kW) {
#pragma GCC unroll 16
      for (size_t r = 0; r < kW; ++r) {
        const __m512 xv = _mm512_load_ps(xb + r * x_stride + p);
        const __m512 yv = _mm512_load_ps(yb + r * y_stride + p);
        acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(xv, yv));
      }
    }
    const size_t t = d - p;
    if (t != 0) {
      const __mmask16 m = static_cast<__mmask16>((1u << t) - 1u);
#pragma GCC unroll 16
      for (size_t r = 0; r < kW; ++r) {
        const __m512 xv = _mm512_maskz_loadu_ps(m, xb + r * x_stride + p);
        const __m512 yv = _mm512_maskz_loadu_ps(m, yb + r * y_stride + p);
        acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(xv, yv));
      }
    }
    const __m512 s =
        seed != nullptr ? _mm512_loadu_ps(seed + i) : _mm512_setzero_ps();
    _mm512_storeu_ps(out + i, BlockLaneSum(acc, s));
  }
  for (; i < hi; ++i) {
    out[i] = RowDotOne(x + i * x_stride, y + i * y_stride, d,
                       seed != nullptr ? seed[i] : 0.0f);
  }
}

void Axpy(float alpha, const float* x, float* out, size_t lo, size_t hi) {
  const __m512 av = _mm512_set1_ps(alpha);
  for (size_t i = lo; i + kW <= hi; i += kW) {
    _mm512_store_ps(out + i,
                    _mm512_add_ps(_mm512_load_ps(out + i),
                                  _mm512_mul_ps(av, _mm512_load_ps(x + i))));
  }
}

void Sigmoid(const float* x, float* out, size_t lo, size_t hi) {
  for (size_t i = lo; i + kW <= hi; i += kW) {
    _mm512_store_ps(out + i, SigmoidPs(_mm512_load_ps(x + i)));
  }
}

void Tanh(const float* x, float* out, size_t lo, size_t hi) {
  for (size_t i = lo; i + kW <= hi; i += kW) {
    _mm512_store_ps(out + i, TanhPs(_mm512_load_ps(x + i)));
  }
}

size_t FindNonFinite(const float* x, size_t n) {
  const __m512i exp_mask = _mm512_set1_epi32(0x7f800000);
  const __m512i exp_ulp = _mm512_set1_epi32(0x00800000);
  const __m512i zero = _mm512_setzero_si512();
  constexpr size_t kBlock = 4 * kW;
  size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    __m512i acc = zero;
    for (size_t v = 0; v < kBlock; v += kW) {
      const __m512i bits =
          _mm512_load_si512(reinterpret_cast<const void*>(x + i + v));
      acc = _mm512_or_si512(
          acc, _mm512_add_epi32(_mm512_and_si512(bits, exp_mask), exp_ulp));
    }
    // Sign bit set in any lane == some float in the block is non-finite.
    if (_mm512_cmp_epi32_mask(acc, zero, _MM_CMPINT_LT) == 0) continue;
    for (size_t j = i; j < i + kBlock; ++j) {
      if (!std::isfinite(x[j])) return j;
    }
  }
  for (; i < n; ++i) {
    if (!std::isfinite(x[i])) return i;
  }
  return n;
}

}  // namespace

const Backend& Avx512Backend() {
  static const Backend table = {
      pup::simd::Isa::kAvx512,
      "avx512",
      kW,
      obs::Registry::Global().GetCounter("simd/dispatch/avx512"),
      &GemmRows,
      &GemmTransARows,
      &DotRows,
      &Axpy,
      &Sigmoid,
      &Tanh,
      &FindNonFinite,
      Avx2Backend().qdot_i8_rows,
      Avx2Backend().qdot_i4_rows,
      Avx2Backend().rerank_dot_rows,
  };
  return table;
}

}  // namespace pup::la::simd

#endif  // PUP_HAVE_AVX512
