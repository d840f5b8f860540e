// Tests for the runtime-dispatched SIMD kernel backend (la/simd):
//  * ISA probe / --simd flag plumbing and the obs export of the choice.
//  * The determinism taxonomy from docs/simd.md, enforced per backend:
//     - order-preserving kernels (Gemm / GemmTransA) are bitwise-equal
//       to the scalar golden path on every backend;
//     - lane-reduced kernels (RowDot / RowDotDiff / GemmTransB and the
//       ScoreItems* entries, with and without a bias seed) are
//       bitwise-equal to a pinned-order lane reference (W zero-padded
//       lane accumulators reduced in lane order 0..W-1 onto the seed) at
//       each backend's lane width, and thread-count invariant at a fixed
//       backend;
//     - approximate elementwise (Sigmoid / Tanh) obeys a bounded-ULP
//       contract on vector backends while --simd=off stays bitwise-equal
//       to the historical libm formulation (the golden path).
//  * The shared non-finite scan (AllFinite / CountNonFinite) returns the
//    same verdict, counts, and first index on every backend, and never
//    reads the padded tail of a row (matrix.h layout contract).
//  * 3-epoch end-to-end training is bitwise-reproducible across thread
//    counts at every fixed backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "la/simd/backend.h"
#include "obs/registry.h"
#include "tiny_mf.h"
#include "train/trainer.h"

namespace pup {
namespace {

using la::Matrix;
using simd::Isa;

// Every test leaves the globals (active ISA, pool size) at their
// defaults so suites sharing this binary start from a known state.
class SimdTest : public ::testing::Test {
 protected:
  void TearDown() override {
    simd::SetActiveIsa(simd::DetectBestIsa());
    ThreadPool::SetGlobalThreads(0);
  }
};

using SimdDispatchTest = SimdTest;
using SimdParityTest = SimdTest;
using SimdUlpTest = SimdTest;
using SimdNumericScanTest = SimdTest;
using SimdTrainingTest = SimdTest;
using MatrixLayoutTest = SimdTest;

std::vector<Isa> AllIsas() {
  std::vector<Isa> isas = {Isa::kOff};
  if (simd::IsaSupported(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  return isas;
}

Matrix RandomMatrix(size_t r, size_t c, uint64_t seed) {
  Rng rng(seed);
  return Matrix::Uniform(r, c, -1.0f, 1.0f, &rng);
}

uint32_t Bits(float f) {
  uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

// Monotone mapping of the float line onto integers, for ULP distances.
int64_t OrderedKey(float f) {
  const uint32_t u = Bits(f);
  const uint32_t key = (u & 0x80000000u) ? ~u : (u | 0x80000000u);
  return static_cast<int64_t>(key);
}

int64_t UlpDiff(float a, float b) {
  return std::abs(OrderedKey(a) - OrderedKey(b));
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(Bits(a(r, c)), Bits(b(r, c)))
          << what << " at (" << r << ", " << c << "): " << a(r, c)
          << " vs " << b(r, c);
    }
  }
}

// The pinned-order lane reduction contract (docs/simd.md), replicated
// exactly: W lane accumulators fed in element order, the tail entering
// as one zero-padded lane step (every lane adds, dead lanes add +0.0f,
// exactly like a masked vector load), then lanes summed 0..W-1 into a
// scalar that starts at `seed`. W == 1 degenerates to the scalar golden
// path's plain element-order accumulation onto the seed.
float PinnedLaneDot(const float* x, const float* y, size_t k, size_t w,
                    float seed = 0.0f) {
  if (w <= 1) {
    float acc = seed;
    for (size_t p = 0; p < k; ++p) acc += x[p] * y[p];
    return acc;
  }
  std::vector<float> acc(w, 0.0f);
  size_t p = 0;
  for (; p + w <= k; p += w) {
    for (size_t l = 0; l < w; ++l) acc[l] += x[p + l] * y[p + l];
  }
  if (p < k) {
    for (size_t l = 0; l < w; ++l) {
      const float xv = p + l < k ? x[p + l] : 0.0f;
      const float yv = p + l < k ? y[p + l] : 0.0f;
      acc[l] += xv * yv;
    }
  }
  float s = seed;
  for (size_t l = 0; l < w; ++l) s += acc[l];
  return s;
}

// ------------------------- Probe and dispatch --------------------------

TEST_F(SimdDispatchTest, ProbeAndFlagParsing) {
  EXPECT_TRUE(simd::IsaSupported(Isa::kOff));
  const Isa best = simd::DetectBestIsa();
  EXPECT_TRUE(simd::IsaSupported(best));

  ASSERT_TRUE(simd::SetActiveIsaFromString("off").ok());
  EXPECT_EQ(simd::ActiveIsa(), Isa::kOff);
  ASSERT_TRUE(simd::SetActiveIsaFromString("auto").ok());
  EXPECT_EQ(simd::ActiveIsa(), best);

  const Status bogus = simd::SetActiveIsaFromString("sse9");
  EXPECT_FALSE(bogus.ok());
  EXPECT_NE(bogus.message().find("sse9"), std::string::npos);

  if (simd::IsaSupported(Isa::kAvx2)) {
    EXPECT_TRUE(simd::SetActiveIsaFromString("avx2").ok());
    EXPECT_EQ(simd::ActiveIsa(), Isa::kAvx2);
  } else {
    // Requesting an unsupported backend is a flag error, not a silent
    // fallback — a pinned-ISA reproduction must fail loudly.
    EXPECT_FALSE(simd::SetActiveIsaFromString("avx2").ok());
  }

  // A wider x86 ISA name has no backend in any build: it is an unknown
  // value on every host, so a script that passes it fails loudly
  // instead of running on AVX2.
  const Status removed = simd::SetActiveIsaFromString("avx512");
  EXPECT_EQ(removed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(removed.message().find("avx512"), std::string::npos);
  EXPECT_NE(removed.message().find("auto, off, or avx2"), std::string::npos);
}

TEST_F(SimdDispatchTest, TablesMatchTheirIsa) {
  for (Isa isa : AllIsas()) {
    const la::simd::Backend& be = la::simd::ForIsa(isa);
    EXPECT_EQ(be.isa, isa);
    EXPECT_STREQ(be.name, simd::IsaName(isa));
    EXPECT_EQ(be.lane_width, simd::IsaLaneWidth(isa));
    EXPECT_NE(be.dispatch_count, nullptr);
  }
  // An unsupported slot falls back to the scalar table.
  if (!simd::IsaSupported(Isa::kAvx2)) {
    EXPECT_EQ(la::simd::ForIsa(Isa::kAvx2).isa, Isa::kOff);
  }
  simd::SetActiveIsa(simd::DetectBestIsa());
  EXPECT_EQ(la::simd::Active().isa, simd::DetectBestIsa());
}

TEST_F(SimdDispatchTest, ObsExportsIsaAndDispatchCounts) {
  auto& reg = obs::Registry::Global();
  simd::SetActiveIsa(Isa::kOff);
  EXPECT_EQ(reg.GetGauge("simd/lane_width")->Get(), 1);
  EXPECT_EQ(reg.GetGauge("simd/isa/off")->Get(), 1);

  const Isa best = simd::DetectBestIsa();
  simd::SetActiveIsa(best);
  EXPECT_EQ(reg.GetGauge("simd/lane_width")->Get(),
            static_cast<int64_t>(simd::IsaLaneWidth(best)));
  EXPECT_EQ(reg.GetGauge(std::string("simd/isa/") + simd::IsaName(best))->Get(),
            1);
  // One-hot: selecting `best` cleared the earlier `off` bit (when they
  // differ, which is the case on any vector-capable host).
  if (best != Isa::kOff) {
    EXPECT_EQ(reg.GetGauge("simd/isa/off")->Get(), 0);
  }

  // Every dispatched kernel call bumps the active backend's counter.
  obs::Counter* count =
      reg.GetCounter(std::string("simd/dispatch/") + simd::IsaName(best));
  const uint64_t before = count->Get();
  Matrix x = RandomMatrix(4, 5, 1);
  Matrix out;
  la::Sigmoid(x, &out);
  la::RowDot(x, x, &out);
  EXPECT_GE(count->Get(), before + 2);
}

// ------------------- Matrix layout (padding contract) ------------------

TEST_F(MatrixLayoutTest, PaddedStrideAndAlignment) {
  Matrix m(3, 17);
  EXPECT_EQ(m.stride(), 32u);           // 17 rounded up to 16 floats.
  EXPECT_EQ(m.size(), 3u * 17u);        // size() stays logical.
  EXPECT_GE(m.padded_size(), 3u * 32u);
  EXPECT_FALSE(m.IsContiguous());
  for (size_t r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(r)) % 64, 0u)
        << "row " << r << " not 64-byte aligned";
  }
  // Column vectors stay unpadded (contiguous), the shape every
  // (n,1)-consuming kernel assumes.
  Matrix v(5, 1);
  EXPECT_EQ(v.stride(), 1u);
  EXPECT_TRUE(v.IsContiguous());

  // FlatAt maps logical row-major indices through the stride.
  Matrix seq(2, 17);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 17; ++c) {
      seq(r, c) = static_cast<float>(r * 17 + c);
    }
  }
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq.FlatAt(i), static_cast<float>(i));
  }
}

// --------------------- Order-preserving kernels ------------------------

// Gemm and GemmTransA vectorize across output columns with one
// accumulator per output element, so every backend must be bitwise-equal
// to --simd=off on every shape, ragged tails included.
TEST_F(SimdParityTest, GemmFamilyBitwiseEqualAcrossBackends) {
  struct Shape {
    size_t m, k, n;
  };
  const Shape shapes[] = {{1, 1, 1}, {3, 5, 7},  {2, 16, 32}, {5, 17, 33},
                          {1, 8, 1}, {7, 3, 2},  {4, 33, 16}, {3, 5, 1},
                          {2, 1, 9}, {16, 16, 16}};
  for (const Shape& s : shapes) {
    Matrix a = RandomMatrix(s.m, s.k, 11 * s.m + s.n);
    Matrix at = RandomMatrix(s.k, s.m, 13 * s.k + s.n);
    Matrix b = RandomMatrix(s.k, s.n, 17 * s.n + s.m);

    simd::SetActiveIsa(Isa::kOff);
    Matrix gemm_golden, ta_golden;
    la::Gemm(a, b, &gemm_golden);
    la::GemmTransA(at, b, &ta_golden);

    for (Isa isa : AllIsas()) {
      simd::SetActiveIsa(isa);
      Matrix gemm_out, ta_out;
      la::Gemm(a, b, &gemm_out);
      la::GemmTransA(at, b, &ta_out);
      ExpectBitwiseEqual(gemm_out, gemm_golden, simd::IsaName(isa));
      ExpectBitwiseEqual(ta_out, ta_golden, simd::IsaName(isa));
    }
  }
}

// Axpy is elementwise mul-then-add in element order on every backend.
TEST_F(SimdParityTest, AxpyBitwiseEqualAcrossBackends) {
  for (auto [r, c] : {std::pair<size_t, size_t>{1, 1},
                      {3, 17},
                      {2, 16},
                      {5, 33},
                      {7, 1}}) {
    Matrix x = RandomMatrix(r, c, 3 * r + c);
    simd::SetActiveIsa(Isa::kOff);
    Matrix golden = RandomMatrix(r, c, 5 * r + c);
    la::Axpy(0.37f, x, &golden);
    for (Isa isa : AllIsas()) {
      simd::SetActiveIsa(isa);
      Matrix out = RandomMatrix(r, c, 5 * r + c);
      la::Axpy(0.37f, x, &out);
      ExpectBitwiseEqual(out, golden, simd::IsaName(isa));
    }
  }
}

// ----------------------- Lane-reduced kernels --------------------------

// Each backend must match the pinned-order lane reference exactly at its
// own lane width — this is the accumulation-order contract that makes
// results reproducible at any --threads for a fixed --simd backend.
TEST_F(SimdParityTest, LaneReducedKernelsMatchPinnedReference) {
  std::vector<std::pair<size_t, size_t>> shapes = {
      {1, 1}, {2, 3}, {3, 8}, {4, 16}, {5, 17}, {2, 31}, {3, 33}, {1, 100}};
  // Rows 8, 16, 17 and 40 fill whole 8- and 16-row blocks, with and
  // without rows left over; 64 + 7 rows span two 64-item tiles of the
  // batched scorer. The d values leave ragged lane tails.
  for (size_t rows : {8, 16, 17, 40, 64 + 7}) {
    for (size_t d : {17, 33, 64, 100}) shapes.emplace_back(rows, d);
  }
  for (auto [rows, d] : shapes) {
    Matrix x = RandomMatrix(rows, d, 7 * rows + d);
    Matrix y = RandomMatrix(rows, d, 9 * rows + d);
    Matrix z = RandomMatrix(rows, d, 21 * rows + d);
    for (Isa isa : AllIsas()) {
      simd::SetActiveIsa(isa);
      const size_t w = simd::IsaLaneWidth(isa);

      Matrix dot, diff;
      la::RowDot(x, y, &dot);
      la::RowDotDiff(x, y, z, &diff);
      for (size_t i = 0; i < rows; ++i) {
        const float ref = PinnedLaneDot(x.Row(i), y.Row(i), d, w);
        ASSERT_EQ(Bits(dot(i, 0)), Bits(ref))
            << simd::IsaName(isa) << " RowDot row " << i << " d=" << d;
        const float ref_diff = PinnedLaneDot(x.Row(i), z.Row(i), d, w) -
                               PinnedLaneDot(x.Row(i), y.Row(i), d, w);
        ASSERT_EQ(Bits(diff(i, 0)), Bits(ref_diff))
            << simd::IsaName(isa) << " RowDotDiff row " << i << " d=" << d;
      }

      // Scoring: the rows of x are items, the rows of y users; an item's
      // bias, when there is one, seeds its dot. The subset lists the
      // items in reverse.
      std::vector<uint32_t> idx(rows);
      for (size_t j = 0; j < rows; ++j) {
        idx[j] = static_cast<uint32_t>(rows - 1 - j);
      }
      Rng bias_rng(41 + d);
      std::vector<float> bias(rows);
      for (float& b : bias) b = 2.0f * bias_rng.NextFloat() - 1.0f;
      const float* const seeds[] = {nullptr, bias.data()};
      for (const float* seed : seeds) {
        const char* what = seed != nullptr ? " with bias" : " without bias";
        // The batch pass in chunks of its grain, as the server splits it
        // across callers; 64 + 7 rows are two chunks at every d here.
        Matrix batch(y.rows(), x.rows());
        const size_t grain = la::ScoreItemsForUsersGrain(y.rows(), d);
        for (size_t lo = 0; lo < rows; lo += grain) {
          la::ScoreItemsForUsers(x, y, seed, lo, std::min(rows, lo + grain),
                                 &batch);
        }
        std::vector<float> one(rows), subset(rows), ref(rows);
        for (size_t u = 0; u < rows; ++u) {
          la::ScoreItemsForUser(x, y.Row(u), seed, one.data());
          la::ScoreItemsSubset(x, y.Row(u), seed, idx.data(), rows,
                               subset.data());
          for (size_t i = 0; i < rows; ++i) {
            ref[i] = PinnedLaneDot(x.Row(i), y.Row(u), d, w,
                                   seed != nullptr ? seed[i] : 0.0f);
          }
          for (size_t i = 0; i < rows; ++i) {
            ASSERT_EQ(Bits(one[i]), Bits(ref[i]))
                << simd::IsaName(isa) << " ScoreItemsForUser" << what
                << " (" << u << "," << i << ") d=" << d;
            ASSERT_EQ(Bits(batch(u, i)), Bits(ref[i]))
                << simd::IsaName(isa) << " ScoreItemsForUsers" << what
                << " (" << u << "," << i << ") d=" << d;
            ASSERT_EQ(Bits(subset[i]), Bits(ref[idx[i]]))
                << simd::IsaName(isa) << " ScoreItemsSubset" << what
                << " (" << u << "," << idx[i] << ") d=" << d;
          }
        }
      }

      Matrix tb;
      la::GemmTransB(x, y, &tb);  // (rows,d) x (rows,d)^T -> (rows,rows)
      for (size_t i = 0; i < rows; ++i) {
        for (size_t j = 0; j < rows; ++j) {
          const float ref = PinnedLaneDot(x.Row(i), y.Row(j), d, w);
          ASSERT_EQ(Bits(tb(i, j)), Bits(ref))
              << simd::IsaName(isa) << " GemmTransB (" << i << "," << j
              << ") d=" << d;
        }
      }
    }
  }
}

// At a fixed backend, results are bitwise-invariant across thread counts:
// chunk boundaries come from the grain, not the pool size, and each
// output element is owned by exactly one chunk.
TEST_F(SimdParityTest, FixedIsaIsThreadCountInvariant) {
  const size_t rows = 2048, d = 33;  // Big enough to split into chunks.
  Matrix x = RandomMatrix(rows, d, 42);
  Matrix y = RandomMatrix(rows, d, 43);
  Matrix b = RandomMatrix(d, 17, 44);
  for (Isa isa : AllIsas()) {
    simd::SetActiveIsa(isa);
    ThreadPool::SetGlobalThreads(1);
    Matrix dot1, gemm1, sig1;
    la::RowDot(x, y, &dot1);
    la::Gemm(x, b, &gemm1);
    la::Sigmoid(x, &sig1);
    ThreadPool::SetGlobalThreads(4);
    Matrix dot4, gemm4, sig4;
    la::RowDot(x, y, &dot4);
    la::Gemm(x, b, &gemm4);
    la::Sigmoid(x, &sig4);
    ExpectBitwiseEqual(dot1, dot4, simd::IsaName(isa));
    ExpectBitwiseEqual(gemm1, gemm4, simd::IsaName(isa));
    ExpectBitwiseEqual(sig1, sig4, simd::IsaName(isa));
    ThreadPool::SetGlobalThreads(0);
  }
}

// --------------------- Approximate elementwise -------------------------

// The scalar backend is the golden path: bitwise-identical to the
// historical libm formulations at --simd=off.
TEST_F(SimdUlpTest, ScalarBackendMatchesLibmBitwise) {
  simd::SetActiveIsa(Isa::kOff);
  Matrix x(1, 64);
  Rng rng(7);
  for (size_t c = 0; c < x.cols(); ++c) {
    x(0, c) = rng.NextUniform(-12.0f, 12.0f);
  }
  Matrix sig, th;
  la::Sigmoid(x, &sig);
  la::Tanh(x, &th);
  for (size_t c = 0; c < x.cols(); ++c) {
    const float v = x(0, c);
    const float want_sig = v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                                     : std::exp(v) / (1.0f + std::exp(v));
    EXPECT_EQ(Bits(sig(0, c)), Bits(want_sig));
    EXPECT_EQ(Bits(th(0, c)), Bits(std::tanh(v)));
  }
}

// Vector sigmoid/tanh carry a bounded-ULP contract against the
// double-precision reference, over the whole interesting range plus the
// saturation tails.
TEST_F(SimdUlpTest, VectorSigmoidTanhUlpBounds) {
  constexpr int64_t kMaxUlp = 8;
  std::vector<float> values;
  for (float v = -30.0f; v <= 30.0f; v += 0.0173f) values.push_back(v);
  for (float v :
       {0.0f, -0.0f, 1e-30f, -1e-30f, 3.9e-4f, -3.9e-4f, 4.1e-4f, -4.1e-4f,
        7.9053f, -7.9053f, 80.0f, -80.0f, 87.4f, -87.4f, 100.0f, -100.0f,
        1e30f, -1e30f}) {
    values.push_back(v);
  }
  Matrix x(values.size(), 1);
  for (size_t i = 0; i < values.size(); ++i) x(i, 0) = values[i];

  for (Isa isa : AllIsas()) {
    if (isa == Isa::kOff) continue;
    simd::SetActiveIsa(isa);
    Matrix sig, th;
    la::Sigmoid(x, &sig);
    la::Tanh(x, &th);
    int64_t worst_sig = 0, worst_tanh = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      const double v = values[i];
      const float ref_sig = static_cast<float>(1.0 / (1.0 + std::exp(-v)));
      const float ref_tanh = static_cast<float>(std::tanh(v));
      const int64_t dt = UlpDiff(th(i, 0), ref_tanh);
      worst_tanh = std::max(worst_tanh, dt);
      // The exp clamp (docs/simd.md) floors sigmoid at ~FLT_MIN, so ULP
      // distance is undefined once the true value goes subnormal; there
      // the contract is absolute: at or below the clamp floor.
      constexpr float kSigmoidFloor = 1.5e-38f;
      if (ref_sig < kSigmoidFloor) {
        EXPECT_LE(sig(i, 0), kSigmoidFloor)
            << simd::IsaName(isa) << " sigmoid(" << values[i] << ")";
      } else {
        const int64_t ds = UlpDiff(sig(i, 0), ref_sig);
        worst_sig = std::max(worst_sig, ds);
        EXPECT_LE(ds, kMaxUlp) << simd::IsaName(isa) << " sigmoid("
                               << values[i] << ") = " << sig(i, 0) << " want "
                               << ref_sig;
      }
      EXPECT_LE(dt, kMaxUlp) << simd::IsaName(isa) << " tanh(" << values[i]
                             << ") = " << th(i, 0) << " want " << ref_tanh;
    }
    // Saturation: sigmoid's exp underflows against 1.0 exactly; tanh's
    // rational form at the clamp rail is within the ULP contract of ±1.
    EXPECT_EQ(sig(values.size() - 2, 0), 1.0f);             // sigmoid(1e30)
    EXPECT_LE(UlpDiff(th(values.size() - 2, 0), 1.0f), 1);  // tanh(1e30)
    EXPECT_LE(UlpDiff(th(values.size() - 1, 0), -1.0f), 1);
  }
}

// NaN passes through the vector approximations unchanged, so the numeric
// guard (ag::NumericGuard) sees poisoned activations exactly as it does
// on the scalar path; infinities saturate.
TEST_F(SimdUlpTest, VectorSigmoidTanhSpecialValues) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Matrix x(4, 1);
  x(0, 0) = nan;
  x(1, 0) = inf;
  x(2, 0) = -inf;
  x(3, 0) = 0.5f;
  for (Isa isa : AllIsas()) {
    simd::SetActiveIsa(isa);
    Matrix sig, th;
    la::Sigmoid(x, &sig);
    la::Tanh(x, &th);
    EXPECT_TRUE(std::isnan(sig(0, 0))) << simd::IsaName(isa);
    EXPECT_TRUE(std::isnan(th(0, 0))) << simd::IsaName(isa);
    EXPECT_EQ(sig(1, 0), 1.0f) << simd::IsaName(isa);
    EXPECT_NEAR(sig(2, 0), 0.0f, 1e-37) << simd::IsaName(isa);
    EXPECT_LE(UlpDiff(th(1, 0), 1.0f), 1) << simd::IsaName(isa);
    EXPECT_LE(UlpDiff(th(2, 0), -1.0f), 1) << simd::IsaName(isa);
  }
}

// ----------------------- Shared non-finite scan ------------------------

TEST_F(SimdNumericScanTest, SameVerdictCountsAndIndexOnEveryBackend) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();

  Matrix clean = RandomMatrix(5, 17, 3);
  Matrix dirty = clean;
  dirty(2, 16) = nan;  // Last logical column of a padded row.
  dirty(4, 0) = -inf;
  Matrix tail = RandomMatrix(3, 5, 4);
  tail(2, 4) = inf;  // Inside a masked-tail lane on every vector width.

  for (Isa isa : AllIsas()) {
    simd::SetActiveIsa(isa);
    EXPECT_TRUE(la::AllFinite(clean)) << simd::IsaName(isa);
    EXPECT_FALSE(la::AllFinite(dirty)) << simd::IsaName(isa);
    const la::NonFiniteCounts counts = la::CountNonFinite(dirty);
    EXPECT_EQ(counts.nans, 1u) << simd::IsaName(isa);
    EXPECT_EQ(counts.infs, 1u) << simd::IsaName(isa);
    EXPECT_EQ(counts.first_index, 2u * 17u + 16u) << simd::IsaName(isa);

    EXPECT_FALSE(la::AllFinite(tail)) << simd::IsaName(isa);
    EXPECT_EQ(la::CountNonFinite(tail).first_index, 2u * 5u + 4u)
        << simd::IsaName(isa);
  }
}

// Pad lanes are dead: poisoning the padded tail of every row must not
// change the verdict on any backend — the scan walks logical elements
// only (contiguous buffers have no pads by construction).
TEST_F(SimdNumericScanTest, PaddedTailGarbageIsIgnored) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Matrix m = RandomMatrix(4, 17, 5);
  ASSERT_GT(m.stride(), m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    float* row = m.Row(r);
    for (size_t c = m.cols(); c < m.stride(); ++c) row[c] = nan;
  }
  for (Isa isa : AllIsas()) {
    simd::SetActiveIsa(isa);
    EXPECT_TRUE(la::AllFinite(m)) << simd::IsaName(isa);
    EXPECT_EQ(la::CountNonFinite(m).first_index, m.size())
        << simd::IsaName(isa);
  }
}

// -------------------- End-to-end training parity -----------------------


// For every fixed backend (the auto choice and the off golden path), a
// 3-epoch training run is bitwise-identical at --threads=1 and
// --threads=4: the lane width, not the thread count, pins the
// accumulation order.
TEST_F(SimdTrainingTest, ThreeEpochRunIsThreadInvariantPerBackend) {
  data::SyntheticConfig config =
      data::SyntheticConfig::YelpLike().Scaled(0.03);
  config.num_interactions = 1500;
  config.seed = 11;
  data::Dataset ds = data::GenerateSynthetic(config);

  train::TrainOptions options;
  options.epochs = 3;
  options.batch_size = 256;
  options.seed = 77;

  std::vector<Isa> isas = {Isa::kOff};
  if (simd::DetectBestIsa() != Isa::kOff) {
    isas.push_back(simd::DetectBestIsa());
  }
  for (Isa isa : isas) {
    simd::SetActiveIsa(isa);

    ThreadPool::SetGlobalThreads(1);
    TinyMf serial(ds.num_users, ds.num_items, 16, 5);
    auto serial_history =
        train::TrainBpr(&serial, ds, ds.interactions, options);

    ThreadPool::SetGlobalThreads(4);
    TinyMf threaded(ds.num_users, ds.num_items, 16, 5);
    auto threaded_history =
        train::TrainBpr(&threaded, ds, ds.interactions, options);

    ASSERT_EQ(serial_history.size(), threaded_history.size());
    for (size_t e = 0; e < serial_history.size(); ++e) {
      EXPECT_EQ(serial_history[e].mean_loss, threaded_history[e].mean_loss)
          << simd::IsaName(isa) << " epoch " << e;
    }
    ExpectBitwiseEqual(serial.users_->value, threaded.users_->value,
                       simd::IsaName(isa));
    ExpectBitwiseEqual(serial.items_->value, threaded.items_->value,
                       simd::IsaName(isa));
    ThreadPool::SetGlobalThreads(0);
  }
}

}  // namespace
}  // namespace pup
