// Scalar backend — the `--simd=off` golden path. These loop bodies are
// the pre-SIMD kernels verbatim (element order, accumulator shape,
// libm transcendentals), so this backend is the bitwise reference every
// regression test pins against. Do not "optimize" it: its value is that
// it never changes.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "la/kernels.h"
#include "la/simd/backend.h"

namespace pup::la::simd {
namespace {

void GemmRows(const float* a, size_t a_stride, const float* b,
              size_t b_stride, float* out, size_t out_stride, size_t lo,
              size_t hi, size_t k, size_t n, size_t /*nw*/) {
  for (size_t i = lo; i < hi; ++i) {
    const float* arow = a + i * a_stride;
    float* orow = out + i * out_stride;
    std::fill(orow, orow + n, 0.0f);
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * b_stride;
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void GemmTransARows(const float* a, size_t a_stride, const float* b,
                    size_t b_stride, float* out, size_t out_stride, size_t lo,
                    size_t hi, size_t k, size_t n, size_t /*nw*/) {
  for (size_t i = lo; i < hi; ++i) {
    float* orow = out + i * out_stride;
    std::fill(orow, orow + n, 0.0f);
    for (size_t p = 0; p < k; ++p) {
      const float av = a[p * a_stride + i];
      const float* brow = b + p * b_stride;
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void DotRows(const float* x, size_t x_stride, const float* y, size_t y_stride,
             const float* seed, float* out, size_t lo, size_t hi, size_t d) {
  for (size_t i = lo; i < hi; ++i) {
    const float* xr = x + i * x_stride;
    const float* yr = y + i * y_stride;
    float acc = seed != nullptr ? seed[i] : 0.0f;
    for (size_t j = 0; j < d; ++j) acc += xr[j] * yr[j];
    out[i] = acc;
  }
}

void Axpy(float alpha, const float* x, float* out, size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) out[i] += alpha * x[i];
}

void Adam(const AdamStep& s, const float* grad, float* value, float* m,
          float* v, size_t lo, size_t hi) {
  const float b1 = s.beta1;
  const float b2 = s.beta2;
  for (size_t i = lo; i < hi; ++i) {
    float g = grad[i] + s.weight_decay * value[i];
    m[i] = b1 * m[i] + (1.0f - b1) * g;
    v[i] = b2 * v[i] + (1.0f - b2) * g * g;
    float m_hat = m[i] / s.bias1;
    float v_hat = v[i] / s.bias2;
    value[i] -= s.learning_rate * m_hat / (std::sqrt(v_hat) + s.epsilon);
  }
}

void Sigmoid(const float* x, float* out, size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    float v = x[i];
    // Stable: never exponentiate a positive argument.
    out[i] = v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                       : std::exp(v) / (1.0f + std::exp(v));
  }
}

void Tanh(const float* x, float* out, size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) out[i] = std::tanh(x[i]);
}

size_t FindNonFinite(const float* x, size_t n) {
  // The historical AllFinite scan: a float is non-finite iff its exponent
  // field is all ones; masking the exponent and adding one exponent ulp
  // carries into the sign bit exactly for NaN/Inf, so OR-accumulating
  // leaves the verdict in the sign bit. Blocked so a dirty block is
  // rescanned element-wise only on the failure path.
  constexpr size_t kBlock = size_t{1} << 12;
  constexpr uint32_t kExpMask = 0x7f800000u;
  constexpr uint32_t kExpUlp = 0x00800000u;
  for (size_t lo = 0; lo < n; lo += kBlock) {
    const size_t hi = std::min(n, lo + kBlock);
    // Four independent accumulators: the OR chains interleave instead of
    // serializing at one element per cycle.
    uint32_t lanes[4] = {0, 0, 0, 0};
    size_t i = lo;
    for (; i + 4 <= hi; i += 4) {
      uint32_t bits[4];
      std::memcpy(bits, &x[i], sizeof(bits));
      lanes[0] |= (bits[0] & kExpMask) + kExpUlp;
      lanes[1] |= (bits[1] & kExpMask) + kExpUlp;
      lanes[2] |= (bits[2] & kExpMask) + kExpUlp;
      lanes[3] |= (bits[3] & kExpMask) + kExpUlp;
    }
    for (; i < hi; ++i) {
      uint32_t bits;
      std::memcpy(&bits, &x[i], sizeof(bits));
      lanes[0] |= (bits & kExpMask) + kExpUlp;
    }
    const uint32_t acc = lanes[0] | lanes[1] | lanes[2] | lanes[3];
    if ((acc & 0x80000000u) == 0) continue;
    for (size_t j = lo; j < hi; ++j) {
      if (!std::isfinite(x[j])) return j;
    }
  }
  return n;
}

// Quantized fastscan reference: plain int32 accumulation over the
// logical prefix of each padded row (codes beyond `bytes` are pad zeros
// every backend may skip). Integer addition is associative, so the
// vector backends are bitwise-equal to this loop by construction
// (docs/quantization.md).
void QdotI8Rows(const uint8_t* codes, size_t stride, size_t bytes,
                const int8_t* query, int32_t* out, size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    const uint8_t* crow = codes + i * stride;
    int32_t acc = 0;
    for (size_t b = 0; b < bytes; ++b) {
      acc += static_cast<int32_t>(crow[b]) * static_cast<int32_t>(query[b]);
    }
    out[i] = acc;
  }
}

void QdotI4Rows(const uint8_t* codes, size_t stride, size_t bytes,
                const int8_t* query_even, const int8_t* query_odd,
                int32_t* out, size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    const uint8_t* crow = codes + i * stride;
    int32_t acc = 0;
    for (size_t b = 0; b < bytes; ++b) {
      acc += static_cast<int32_t>(crow[b] & 0x0f) *
             static_cast<int32_t>(query_even[b]);
      acc += static_cast<int32_t>(crow[b] >> 4) *
             static_cast<int32_t>(query_odd[b]);
    }
    out[i] = acc;
  }
}

// Pinned-16-virtual-lane f32 dot, scalar rendition: 16 accumulators fed
// in element order, tail lanes beyond d add +0.0f (exactly what a
// zero-masked vector load produces), reduced in lane order 0..15. This
// is THE cross-backend contract for the re-rank stage — the vector
// backends reproduce it bitwise, not approximately.
void RerankDotRows(const float* items, size_t stride, const float* query,
                   const uint32_t* ids, float* out, size_t lo, size_t hi,
                   size_t d) {
  constexpr size_t kVL = 16;
  for (size_t j = lo; j < hi; ++j) {
    const float* row = items + static_cast<size_t>(ids[j]) * stride;
    float acc[kVL] = {};
    size_t p = 0;
    for (; p + kVL <= d; p += kVL) {
      for (size_t l = 0; l < kVL; ++l) acc[l] += row[p + l] * query[p + l];
    }
    const size_t t = d - p;
    if (t != 0) {
      for (size_t l = 0; l < kVL; ++l) {
        acc[l] += l < t ? row[p + l] * query[p + l] : 0.0f;
      }
    }
    float s = 0.0f;
    for (size_t l = 0; l < kVL; ++l) s += acc[l];
    out[j] = s;
  }
}

}  // namespace

const Backend& ScalarBackend() {
  static const Backend table = {
      pup::simd::Isa::kOff,
      "off",
      1,
      obs::Registry::Global().GetCounter("simd/dispatch/off"),
      &GemmRows,
      &GemmTransARows,
      &DotRows,
      &Axpy,
      &Adam,
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
