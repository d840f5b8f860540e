// Unit + property tests for src/la: Matrix, CsrMatrix, kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "la/csr.h"
#include "la/kernels.h"
#include "la/matrix.h"

namespace pup::la {
namespace {

Matrix RandomMatrix(size_t r, size_t c, Rng* rng) {
  return Matrix::Uniform(r, c, -1.0f, 1.0f, rng);
}

// Naive reference gemm for cross-checking the optimized loop order.
Matrix NaiveGemm(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = acc;
    }
  }
  return out;
}

void ExpectMatrixNear(const Matrix& a, const Matrix& b, float tol = 1e-5f) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.FlatAt(i), b.FlatAt(i), tol) << "flat index " << i;
  }
}

// ------------------------------- Matrix --------------------------------

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.FlatAt(i), 0.0f);
}

TEST(MatrixTest, FillConstructorAndFill) {
  Matrix m(2, 2, 3.5f);
  EXPECT_EQ(m(1, 1), 3.5f);
  m.Fill(-1.0f);
  EXPECT_EQ(m(0, 0), -1.0f);
  m.Zero();
  EXPECT_EQ(m(0, 1), 0.0f);
}

TEST(MatrixTest, FromDataRowMajor) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m(0, 2), 3.0f);
  EXPECT_EQ(m(1, 0), 4.0f);
}

TEST(MatrixTest, RowPointerMatchesIndexing) {
  Matrix m(3, 2, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.Row(1)[0], m(1, 0));
  EXPECT_EQ(m.Row(2)[1], m(2, 1));
}

TEST(MatrixTest, IdentityDiagonal) {
  Matrix eye = Matrix::Identity(4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(eye(i, j), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(MatrixTest, GaussianStats) {
  Rng rng(3);
  Matrix m = Matrix::Gaussian(100, 100, 2.0f, &rng);
  double sum = Sum(m);
  double var = SquaredNorm(m) / m.size();
  EXPECT_NEAR(sum / m.size(), 0.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(MatrixTest, SameShape) {
  EXPECT_TRUE(Matrix(2, 3).SameShape(Matrix(2, 3)));
  EXPECT_FALSE(Matrix(2, 3).SameShape(Matrix(3, 2)));
}

// --------------------------------- CSR ---------------------------------

TEST(CsrTest, FromTripletsBasic) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 2.0f}, {2, 0, 1.0f}, {1, 1, -1.0f}});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.At(0, 1), 2.0f);
  EXPECT_EQ(m.At(1, 1), -1.0f);
  EXPECT_EQ(m.At(2, 0), 1.0f);
  EXPECT_EQ(m.At(0, 0), 0.0f);
}

TEST(CsrTest, DuplicatesSum) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0f}, {0, 0, 2.5f}, {1, 1, 1.0f}});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.At(0, 0), 3.5f);
}

TEST(CsrTest, EmptyMatrix) {
  CsrMatrix m = CsrMatrix::FromTriplets(4, 5, {});
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.At(3, 4), 0.0f);
}

TEST(CsrTest, DenseRoundTrip) {
  Rng rng(5);
  Matrix dense(6, 7);
  for (int k = 0; k < 12; ++k) {
    dense(rng.NextBelow(6), rng.NextBelow(7)) =
        static_cast<float>(rng.NextGaussian());
  }
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  ExpectMatrixNear(sparse.ToDense(), dense);
}

TEST(CsrTest, TransposeInvolution) {
  Rng rng(6);
  std::vector<Triplet> trips;
  for (int k = 0; k < 20; ++k) {
    trips.push_back({static_cast<uint32_t>(rng.NextBelow(5)),
                     static_cast<uint32_t>(rng.NextBelow(8)),
                     rng.NextFloat()});
  }
  CsrMatrix m = CsrMatrix::FromTriplets(5, 8, trips);
  CsrMatrix tt = m.Transposed().Transposed();
  ExpectMatrixNear(tt.ToDense(), m.ToDense());
}

TEST(CsrTest, TransposeMatchesDense) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      2, 3, {{0, 2, 5.0f}, {1, 0, 3.0f}});
  CsrMatrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.At(2, 0), 5.0f);
  EXPECT_EQ(t.At(0, 1), 3.0f);
}

TEST(CsrTest, RowAveragedRowsSumToOne) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      3, 3,
      {{0, 0, 1.0f}, {0, 1, 1.0f}, {0, 2, 1.0f}, {1, 1, 1.0f}});
  CsrMatrix avg = m.RowAveraged();
  EXPECT_FLOAT_EQ(avg.At(0, 0), 1.0f / 3.0f);
  EXPECT_FLOAT_EQ(avg.At(1, 1), 1.0f);
  // Empty row stays empty.
  EXPECT_EQ(avg.RowNnz(2), 0u);
}

TEST(CsrTest, RowNormalizedRowsSumToOne) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      2, 3, {{0, 0, 2.0f}, {0, 1, 6.0f}, {1, 2, 5.0f}});
  CsrMatrix norm = m.RowNormalized();
  EXPECT_FLOAT_EQ(norm.At(0, 0), 0.25f);
  EXPECT_FLOAT_EQ(norm.At(0, 1), 0.75f);
  EXPECT_FLOAT_EQ(norm.At(1, 2), 1.0f);
}

TEST(CsrTest, RowNnz) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      3, 3, {{1, 0, 1.0f}, {1, 2, 1.0f}});
  EXPECT_EQ(m.RowNnz(0), 0u);
  EXPECT_EQ(m.RowNnz(1), 2u);
  EXPECT_EQ(m.RowNnz(2), 0u);
}

// ------------------------------- Kernels -------------------------------

struct GemmShape {
  size_t m, k, n;
};

class GemmParamTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmParamTest, MatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b = RandomMatrix(k, n, &rng);
  Matrix out;
  Gemm(a, b, &out);
  ExpectMatrixNear(out, NaiveGemm(a, b), 1e-4f);
}

TEST_P(GemmParamTest, TransAMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(m + k + n);
  Matrix at = RandomMatrix(k, m, &rng);  // aᵀ stored: (k, m).
  Matrix b = RandomMatrix(k, n, &rng);
  Matrix out;
  GemmTransA(at, b, &out);
  // Reference: transpose manually.
  Matrix a(m, k);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < k; ++j) a(i, j) = at(j, i);
  }
  ExpectMatrixNear(out, NaiveGemm(a, b), 1e-4f);
}

TEST_P(GemmParamTest, TransBMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 7 + k * 3 + n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix bt = RandomMatrix(n, k, &rng);  // bᵀ stored: (n, k).
  Matrix out;
  GemmTransB(a, bt, &out);
  Matrix b(k, n);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < n; ++j) b(i, j) = bt(j, i);
  }
  ExpectMatrixNear(out, NaiveGemm(a, b), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParamTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{2, 3, 4},
                      GemmShape{5, 1, 5}, GemmShape{7, 8, 3},
                      GemmShape{16, 16, 16}, GemmShape{1, 20, 1}));

TEST(SpmmTest, MatchesDenseGemm) {
  Rng rng(77);
  Matrix dense_a(6, 5);
  for (int k = 0; k < 10; ++k) {
    dense_a(rng.NextBelow(6), rng.NextBelow(5)) =
        static_cast<float>(rng.NextGaussian());
  }
  CsrMatrix sparse = CsrMatrix::FromDense(dense_a);
  Matrix b = RandomMatrix(5, 4, &rng);
  Matrix out;
  Spmm(sparse, b, &out);
  ExpectMatrixNear(out, NaiveGemm(dense_a, b), 1e-4f);
}

TEST(SpmmTest, EmptyRowsGiveZero) {
  CsrMatrix sparse = CsrMatrix::FromTriplets(3, 2, {{1, 0, 2.0f}});
  Matrix b(2, 3, 1.0f);
  Matrix out;
  Spmm(sparse, b, &out);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(out(0, j), 0.0f);
    EXPECT_EQ(out(1, j), 2.0f);
    EXPECT_EQ(out(2, j), 0.0f);
  }
}

TEST(ElementwiseTest, AddSubMulScale) {
  Matrix x(2, 2, {1, 2, 3, 4});
  Matrix y(2, 2, {10, 20, 30, 40});
  Matrix out;
  Add(x, y, &out);
  EXPECT_EQ(out(1, 1), 44.0f);
  Sub(y, x, &out);
  EXPECT_EQ(out(0, 0), 9.0f);
  Mul(x, y, &out);
  EXPECT_EQ(out(0, 1), 40.0f);
  Scale(0.5f, x, &out);
  EXPECT_EQ(out(1, 0), 1.5f);
}

TEST(ElementwiseTest, Axpy) {
  Matrix x(1, 3, {1, 2, 3});
  Matrix acc(1, 3, {10, 10, 10});
  Axpy(2.0f, x, &acc);
  EXPECT_EQ(acc(0, 0), 12.0f);
  EXPECT_EQ(acc(0, 2), 16.0f);
}

TEST(ActivationTest, TanhValues) {
  Matrix x(1, 3, {-100.0f, 0.0f, 100.0f});
  Matrix out;
  Tanh(x, &out);
  EXPECT_NEAR(out(0, 0), -1.0f, 1e-6f);
  EXPECT_EQ(out(0, 1), 0.0f);
  EXPECT_NEAR(out(0, 2), 1.0f, 1e-6f);
}

TEST(ActivationTest, SigmoidStableAtExtremes) {
  Matrix x(1, 4, {-500.0f, -1.0f, 1.0f, 500.0f});
  Matrix out;
  Sigmoid(x, &out);
  EXPECT_NEAR(out(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(out(0, 1), 0.26894f, 1e-4f);
  EXPECT_NEAR(out(0, 2), 0.73106f, 1e-4f);
  EXPECT_NEAR(out(0, 3), 1.0f, 1e-6f);
  for (size_t i = 0; i < 4; ++i) EXPECT_TRUE(std::isfinite(out(0, i)));
}

TEST(ActivationTest, LeakyRelu) {
  Matrix x(1, 3, {-2.0f, 0.0f, 3.0f});
  Matrix out;
  LeakyRelu(x, 0.1f, &out);
  EXPECT_FLOAT_EQ(out(0, 0), -0.2f);
  EXPECT_EQ(out(0, 1), 0.0f);
  EXPECT_EQ(out(0, 2), 3.0f);
  LeakyRelu(x, 0.0f, &out);
  EXPECT_EQ(out(0, 0), 0.0f);
}

TEST(GatherScatterTest, GatherSelectsRows) {
  Matrix table(4, 2, {0, 1, 10, 11, 20, 21, 30, 31});
  Matrix out;
  GatherRows(table, {3, 0, 3}, &out);
  ASSERT_EQ(out.rows(), 3u);
  EXPECT_EQ(out(0, 1), 31.0f);
  EXPECT_EQ(out(1, 0), 0.0f);
  EXPECT_EQ(out(2, 0), 30.0f);
}

TEST(GatherScatterTest, ScatterAddAccumulatesDuplicates) {
  Matrix table(3, 2);
  Matrix src(3, 2, {1, 1, 2, 2, 4, 4});
  ScatterAddRows(src, {1, 1, 2}, &table);
  EXPECT_EQ(table(0, 0), 0.0f);
  EXPECT_EQ(table(1, 0), 3.0f);  // 1 + 2 accumulated.
  EXPECT_EQ(table(2, 1), 4.0f);
}

TEST(RowOpsTest, RowDot) {
  Matrix x(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix y(2, 3, {1, 1, 1, 2, 2, 2});
  Matrix out;
  RowDot(x, y, &out);
  ASSERT_EQ(out.rows(), 2u);
  EXPECT_EQ(out(0, 0), 6.0f);
  EXPECT_EQ(out(1, 0), 30.0f);
}

TEST(RowOpsTest, RowSumAndRowScale) {
  Matrix x(2, 2, {1, 2, 3, 4});
  Matrix out;
  RowSum(x, &out);
  EXPECT_EQ(out(0, 0), 3.0f);
  EXPECT_EQ(out(1, 0), 7.0f);
  Matrix s(2, 1, {2, -1});
  RowScale(x, s, &out);
  EXPECT_EQ(out(0, 1), 4.0f);
  EXPECT_EQ(out(1, 0), -3.0f);
}

TEST(ReductionTest, SumNormDotMaxAbs) {
  Matrix x(2, 2, {1, -2, 3, -4});
  EXPECT_DOUBLE_EQ(Sum(x), -2.0);
  EXPECT_DOUBLE_EQ(SquaredNorm(x), 30.0);
  Matrix y(2, 2, {1, 1, 1, 1});
  EXPECT_DOUBLE_EQ(Dot(x, y), -2.0);
  EXPECT_EQ(MaxAbs(x), 4.0f);
}

// With no bias, ScoreItemsForUser is the matrix-vector product a · x.
TEST(GemvTest, MatchesGemm) {
  Rng rng(88);
  Matrix a = RandomMatrix(5, 4, &rng);
  Matrix x = RandomMatrix(4, 1, &rng);
  Matrix out1(5, 1), out2;
  ScoreItemsForUser(a, x.data(), nullptr, out1.data());
  Gemm(a, x, &out2);
  ExpectMatrixNear(out1, out2, 1e-5f);
}

}  // namespace
}  // namespace pup::la
