// Dense and sparse compute kernels.
//
// Free functions over Matrix/CsrMatrix; the autograd layer composes these
// into differentiable ops. All kernels assert shape agreement.
//
// Kernels parallelize over row blocks (or flat element blocks) through
// the global thread pool; a --threads=1 pool reproduces the historical
// serial implementation bitwise. ScatterAddRows stays bitwise-identical
// to serial at every thread count via destination-row sharding; the
// scalar reductions (Sum/SquaredNorm/Dot) combine fixed-size chunk
// partials in chunk order. See docs/threading.md.
#pragma once

#include <cstdint>
#include <vector>

#include "la/csr.h"
#include "la/matrix.h"
#include "la/qmatrix.h"

namespace pup::la {

/// out = a * b. Shapes: (m,k) x (k,n) -> (m,n).
void Gemm(const Matrix& a, const Matrix& b, Matrix* out);

/// out = aᵀ * b. Shapes: (k,m) x (k,n) -> (m,n).
void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * bᵀ. Shapes: (m,k) x (n,k) -> (m,n).
void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out);

/// out = sparse * dense. Shapes: (m,k)sparse x (k,n) -> (m,n).
void Spmm(const CsrMatrix& sparse, const Matrix& dense, Matrix* out);

/// out += alpha * x (elementwise, same shape).
void Axpy(float alpha, const Matrix& x, Matrix* out);

/// The scalars of one Adam step: the hyper-parameters, and the bias
/// corrections bias1 = 1 - beta1^t and bias2 = 1 - beta2^t of step t.
struct AdamStep {
  float learning_rate;
  float beta1;
  float beta2;
  float epsilon;
  float weight_decay;
  float bias1;
  float bias2;
};

/// One Adam update (ag::Adam), elementwise over four same-shaped
/// matrices: the gradient `grad`, the parameter `value`, and its first
/// and second moment estimates `m` and `v`. Bitwise-identical on every
/// SIMD backend and at every thread count.
void AdamUpdate(const AdamStep& step, const Matrix& grad, Matrix* value,
                Matrix* m, Matrix* v);

/// out = x + y.
void Add(const Matrix& x, const Matrix& y, Matrix* out);

/// out = x - y.
void Sub(const Matrix& x, const Matrix& y, Matrix* out);

/// out = x ⊙ y (Hadamard).
void Mul(const Matrix& x, const Matrix& y, Matrix* out);

/// out = alpha * x.
void Scale(float alpha, const Matrix& x, Matrix* out);

/// out(r,c) = tanh(x(r,c)).
void Tanh(const Matrix& x, Matrix* out);

/// out(r,c) = sigmoid(x(r,c)) computed in a numerically stable way.
void Sigmoid(const Matrix& x, Matrix* out);

/// out(r,c) = max(x(r,c), slope * x(r,c)). slope = 0 gives plain ReLU.
void LeakyRelu(const Matrix& x, float slope, Matrix* out);

/// out = rows of `table` selected by `idx`: out.Row(i) = table.Row(idx[i]).
void GatherRows(const Matrix& table, const std::vector<uint32_t>& idx,
                Matrix* out);

/// Fused gather + add: out.Row(i) = table_a.Row(idx_a[i]) +
/// table_b.Row(idx_b[i]). One pass instead of two gathers and an add;
/// bitwise-identical to the unfused composition.
void GatherRowsAdd(const Matrix& table_a, const std::vector<uint32_t>& idx_a,
                   const Matrix& table_b, const std::vector<uint32_t>& idx_b,
                   Matrix* out);

/// table.Row(idx[i]) += src.Row(i) for all i (duplicates accumulate).
void ScatterAddRows(const Matrix& src, const std::vector<uint32_t>& idx,
                    Matrix* table);

/// out(i,0) = dot(x.Row(i), y.Row(i)). Shapes: (n,d),(n,d) -> (n,1).
void RowDot(const Matrix& x, const Matrix& y, Matrix* out);

/// Pairwise score difference for BPR: out(i,0) = dot(x.Row(i), b.Row(i))
/// − dot(x.Row(i), a.Row(i)), each dot accumulated independently in
/// element order (bitwise-matching the two-RowDot composition).
void RowDotDiff(const Matrix& x, const Matrix& a, const Matrix& b,
                Matrix* out);

/// out(i,0) = sum of row i. Shape: (n,d) -> (n,1).
void RowSum(const Matrix& x, Matrix* out);

/// Broadcast each row of x (n,d) by the scalar column s (n,1):
/// out(i,j) = x(i,j) * s(i,0).
void RowScale(const Matrix& x, const Matrix& s, Matrix* out);

/// Sum of all entries.
double Sum(const Matrix& x);

/// Sum of squared entries (squared Frobenius norm).
double SquaredNorm(const Matrix& x);

/// Dot product of two same-shape matrices viewed as flat vectors.
double Dot(const Matrix& x, const Matrix& y);

/// Maximum absolute entry.
float MaxAbs(const Matrix& x);

// Scoring entry points (docs/serving.md). All three call the active
// backend's one f32 dot, dot_rows (pinned lane accumulation order), with
// the optional `bias` (length items.rows(), nullptr for none) as each
// item's seed: the item's bias starts its accumulation, then the lane
// sums add onto it. So the single-query, batched, and candidate-subset
// paths produce bitwise-identical floats for the same backend, and
// models::DotScorer, which eval ranks with, is ScoreItemsForUser — the
// mechanism behind the served ≡ eval ranking contract. `user` must be
// 64-byte aligned when items.cols() >= 8 (any padded Matrix row or
// Matrix::data() qualifies). With a null bias, ScoreItemsForUser is the
// matrix-vector product items · user.

/// out[i] = bias[i] + dot(items.Row(i), user) for every item; `out`
/// holds items.rows() floats.
void ScoreItemsForUser(const Matrix& items, const float* user,
                       const float* bias, float* out);

/// Batched form for micro-batched serving: out(r, i) = bias[i] +
/// dot(items.Row(i), users.Row(r)) for the item rows i in [lo, hi).
/// Shapes: (n,d) items, (m,d) users, and `out` already (m,n). Runs on the
/// calling thread, item tiles outer and users inner: every user of the
/// batch dots one 64-row item tile before the next is read, so a pass
/// reads each item row from memory once, not m times. A pass over all n
/// rows is one call over [0, n) or, split across threads, calls over
/// chunks of ScoreItemsForUsersGrain(m, d) rows. Each output row is
/// bitwise-equal to a ScoreItemsForUser call on that user alone, at any
/// batch shape and any split. Counts one `la/score_batch` per pass: the
/// call whose range starts at row 0.
void ScoreItemsForUsers(const Matrix& items, const Matrix& users,
                        const float* bias, size_t lo, size_t hi, Matrix* out);

/// Item rows per chunk of a ScoreItemsForUsers pass for m users of dim d:
/// the kernels' row grain for m dots of length d, rounded up to whole
/// 64-row item tiles.
size_t ScoreItemsForUsersGrain(size_t m, size_t d);

/// Candidate re-rank form: out[j] = bias[idx[j]] +
/// dot(items.Row(idx[j]), user) for j in [0, n_idx). Ids in `idx` must be
/// < items.rows().
void ScoreItemsSubset(const Matrix& items, const float* user,
                      const float* bias, const uint32_t* idx, size_t n_idx,
                      float* out);

// Quantized fastscan scoring (docs/quantization.md). Unlike the f32
// entry points above — bitwise-stable only per lane width — these two
// are bitwise-identical across EVERY backend, thread count, and batch
// schedule: the fastscan dot accumulates in exact int32 arithmetic, the
// dequant epilogue is fixed-order scalar math, and the re-rank dot runs
// in a pinned 16-virtual-lane shape on all ISAs.

/// out[i] = scales[i]*q.scale*acc[i] + mins[i]*q.scale*q.code_sum
///          (+ bias[i]) — the affine-dequantized approximate score of
/// every item row against the quantized query. `acc` is caller scratch
/// of table.rows() int32s (the exact integer dots land there); `out`
/// holds table.rows() floats. Never allocates.
void ScoreItemsQuantized(const QuantizedTable& table,
                         const QuantizedQuery& query, const float* bias,
                         int32_t* acc, float* out);

/// Exact-f32 survivor re-rank: out[j] = dot(items.Row(ids[j]), user) +
/// bias[ids[j]] via the pinned-16-virtual-lane backend dot, so the
/// refined scores (and thus the final ranking) are bitwise-identical on
/// every backend. `user` is any buffer of items.cols() floats: the
/// backends load it unaligned and mask the tail.
void ScoreItemsRerank(const Matrix& items, const float* user,
                      const float* bias, const uint32_t* ids, size_t n_ids,
                      float* out);

/// True iff every entry is finite (no NaN, no ±Inf). Branch-free blockwise
/// scan (one multiply + compare per element, vectorizable) — the fast path
/// of the numeric sentinels (ag::NumericGuard, Matrix::AssertFinite).
/// Never allocates, so clean training steps stay allocation-free.
bool AllFinite(const Matrix& x);

/// Failure-path diagnostics for a matrix that failed AllFinite.
struct NonFiniteCounts {
  size_t nans = 0;
  size_t infs = 0;
  /// Flat (row-major) index of the first non-finite entry; x.size() when
  /// the matrix is clean.
  size_t first_index = 0;
};

/// Counts NaN / ±Inf entries and locates the first one. Serial elementwise
/// walk; only ever called after AllFinite has already failed.
NonFiniteCounts CountNonFinite(const Matrix& x);

}  // namespace pup::la
