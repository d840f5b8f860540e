#include "la/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/thread_pool.h"
#include "la/simd/backend.h"
#include "obs/registry.h"

namespace pup::la {
namespace {

// Resize without zeroing; every kernel below either overwrites each entry
// or explicitly initializes the rows it owns inside its parallel region.
// ResizeNoZero retains the buffer's capacity, so a recycled output matrix
// (tape arena / workspace cache) reaches steady state with no allocation.
void EnsureShapeNoZero(size_t rows, size_t cols, Matrix* out) {
  if (out->rows() != rows || out->cols() != cols) {
    out->ResizeNoZero(rows, cols);
  }
}

// Minimum scalar operations per ParallelFor chunk; keeps scheduling
// overhead well under the cost of the work itself. Also a multiple of
// Matrix::kAlignFloats, so flat elementwise chunks cover whole aligned
// lanes (the SIMD backends rely on this; see docs/simd.md).
constexpr size_t kMinWorkPerChunk = size_t{1} << 14;

// Rows per chunk for a kernel whose per-row cost is `row_cost` scalar ops.
size_t RowGrain(size_t row_cost) {
  return std::max<size_t>(1, kMinWorkPerChunk / std::max<size_t>(1, row_cost));
}

// Order-stable chunked reduction. With a single-thread pool this is the
// historical serial loop (one accumulator, bitwise-identical results);
// with more threads, fixed grain-sized chunks are reduced independently
// and combined in chunk order, so the result is deterministic for any
// pool size > 1 and within reduction-order tolerance of serial.
template <typename ChunkFn>
double ChunkedReduce(size_t n, const ChunkFn& chunk_sum) {
  constexpr size_t kGrain = kMinWorkPerChunk;
  if (n <= kGrain || ThreadPool::Global().num_threads() <= 1) {
    return chunk_sum(size_t{0}, n);
  }
  const size_t num_chunks = (n + kGrain - 1) / kGrain;
  std::vector<double> partial(num_chunks, 0.0);
  ParallelFor(0, n, kGrain,
              [&](size_t lo, size_t hi) { partial[lo / kGrain] = chunk_sum(lo, hi); });
  double acc = 0.0;
  for (double p : partial) acc += p;
  return acc;
}

// Invokes fn(ptr, len) for the maximal contiguous buffer runs holding the
// logical elements with flat indices [lo, hi) — one run when the matrix
// is contiguous, per-row (or row-fragment) runs when the leading
// dimension is padded. Reductions iterate logically through this so
// their accumulation order is independent of the padded layout.
template <typename Fn>
void ForEachLogicalRun(const Matrix& x, size_t lo, size_t hi, const Fn& fn) {
  if (lo >= hi) return;
  if (x.IsContiguous()) {
    fn(x.data() + lo, hi - lo);
    return;
  }
  const size_t cols = x.cols();
  size_t i = lo;
  while (i < hi) {
    const size_t r = i / cols;
    const size_t c = i % cols;
    const size_t len = std::min(cols - c, hi - i);
    fn(x.Row(r) + c, len);
    i += len;
  }
}

// Two-matrix variant for Dot: x and y have the same shape, hence the same
// run decomposition.
template <typename Fn>
void ForEachLogicalRun2(const Matrix& x, const Matrix& y, size_t lo,
                        size_t hi, const Fn& fn) {
  if (lo >= hi) return;
  if (x.IsContiguous() && y.IsContiguous()) {
    fn(x.data() + lo, y.data() + lo, hi - lo);
    return;
  }
  const size_t cols = x.cols();
  size_t i = lo;
  while (i < hi) {
    const size_t r = i / cols;
    const size_t c = i % cols;
    const size_t len = std::min(cols - c, hi - i);
    fn(x.Row(r) + c, y.Row(r) + c, len);
    i += len;
  }
}

// Shared verdict primitive behind AllFinite / CountNonFinite (and
// therefore Matrix::AssertFinite and ag::NumericGuard): the logical flat
// index of the first non-finite element, or size(). One dispatched
// implementation path, so the SIMD and scalar provenance scans cannot
// diverge on the verdict or the reported index.
size_t FirstNonFinite(const Matrix& x) {
  const simd::Backend& be = simd::Active();
  if (x.IsContiguous()) {
    return be.find_nonfinite(x.data(), x.size());
  }
  const size_t cols = x.cols();
  for (size_t r = 0; r < x.rows(); ++r) {
    const size_t idx = be.find_nonfinite(x.Row(r), cols);
    if (idx < cols) return r * cols + idx;
  }
  return x.size();
}

}  // namespace

// PUP_HOT
void Gemm(const Matrix& a, const Matrix& b, Matrix* out) {
  PUP_OBS_COUNT("la/gemm", 1);
  PUP_CHECK_EQ(a.cols(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  EnsureShapeNoZero(m, n, out);
  const simd::Backend& be = simd::Active();
  // Vector backends compute the full padded row width (whole lanes; the
  // b and out strides are equal by layout), scalar exactly the logical
  // columns — out's pad lanes are never consumed either way.
  const size_t nw = n <= 1 ? n : out->stride();
  ParallelFor(0, m, RowGrain(k * n), [&](size_t lo, size_t hi) {
    be.gemm_rows(a.data(), a.stride(), b.data(), b.stride(), out->data(),
                 out->stride(), lo, hi, k, n, nw);
  });
}

// PUP_HOT
void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  PUP_OBS_COUNT("la/gemm_ta", 1);
  PUP_CHECK_EQ(a.rows(), b.rows());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  EnsureShapeNoZero(m, n, out);
  const simd::Backend& be = simd::Active();
  const size_t nw = n <= 1 ? n : out->stride();
  // out(i,j) = Σ_p a(p,i)·b(p,j); p stays the innermost accumulation
  // order so results match the historical p-outer loop bitwise.
  ParallelFor(0, m, RowGrain(k * n), [&](size_t lo, size_t hi) {
    be.gemm_ta_rows(a.data(), a.stride(), b.data(), b.stride(), out->data(),
                    out->stride(), lo, hi, k, n, nw);
  });
}

// PUP_HOT
void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  PUP_OBS_COUNT("la/gemm_tb", 1);
  PUP_CHECK_EQ(a.cols(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  EnsureShapeNoZero(m, n, out);
  const simd::Backend& be = simd::Active();
  // out.Row(i) dots every row of b with row i of a, held at stride 0.
  ParallelFor(0, m, RowGrain(k * n), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      be.dot_rows(b.data(), b.stride(), a.Row(i), 0, nullptr, out->Row(i), 0,
                  n, k);
    }
  });
}

// PUP_HOT
void Spmm(const CsrMatrix& sparse, const Matrix& dense, Matrix* out) {
  PUP_OBS_COUNT("la/spmm", 1);
  PUP_CHECK_EQ(sparse.cols(), dense.rows());
  const size_t m = sparse.rows(), n = dense.cols();
  EnsureShapeNoZero(m, n, out);
  const auto& row_ptr = sparse.row_ptr();
  const auto& col_idx = sparse.col_idx();
  const auto& values = sparse.values();
  // Average row cost; individual rows vary but chunks amortize.
  const size_t row_cost = m == 0 ? 0 : (sparse.nnz() * n) / m;
  ParallelFor(0, m, RowGrain(row_cost), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      float* orow = out->Row(i);
      std::fill(orow, orow + n, 0.0f);
      for (uint32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
        const float v = values[k];
        if (v == 0.0f) continue;  // Explicit zeros are common after masking.
        const float* drow = dense.Row(col_idx[k]);
        for (size_t j = 0; j < n; ++j) orow[j] += v * drow[j];
      }
    }
  });
}

// PUP_HOT
void Axpy(float alpha, const Matrix& x, Matrix* out) {
  PUP_CHECK(x.SameShape(*out));
  const simd::Backend& be = simd::Active();
  const float* xd = x.data();
  float* od = out->data();
  ParallelFor(0, x.padded_size(), kMinWorkPerChunk,
              [&](size_t lo, size_t hi) { be.axpy(alpha, xd, od, lo, hi); });
}

// PUP_HOT
void AdamUpdate(const AdamStep& step, const Matrix& grad, Matrix* value,
                Matrix* m, Matrix* v) {
  PUP_CHECK(grad.SameShape(*value) && m->SameShape(*value) &&
            v->SameShape(*value));
  const simd::Backend& be = simd::Active();
  const float* gd = grad.data();
  float* xd = value->data();
  float* md = m->data();
  float* vd = v->data();
  // Three divides and a square root per element, several times an
  // Axpy element's cost: a quarter of the elementwise grain.
  ParallelFor(0, value->padded_size(), kMinWorkPerChunk / 4,
              [&](size_t lo, size_t hi) {
                be.adam(step, gd, xd, md, vd, lo, hi);
              });
}

// PUP_HOT
void Add(const Matrix& x, const Matrix& y, Matrix* out) {
  PUP_CHECK(x.SameShape(y));
  EnsureShapeNoZero(x.rows(), x.cols(), out);
  const float* xd = x.data();
  const float* yd = y.data();
  float* od = out->data();
  ParallelFor(0, x.padded_size(), kMinWorkPerChunk, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) od[i] = xd[i] + yd[i];
  });
}

// PUP_HOT
void Sub(const Matrix& x, const Matrix& y, Matrix* out) {
  PUP_CHECK(x.SameShape(y));
  EnsureShapeNoZero(x.rows(), x.cols(), out);
  const float* xd = x.data();
  const float* yd = y.data();
  float* od = out->data();
  ParallelFor(0, x.padded_size(), kMinWorkPerChunk, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) od[i] = xd[i] - yd[i];
  });
}

// PUP_HOT
void Mul(const Matrix& x, const Matrix& y, Matrix* out) {
  PUP_CHECK(x.SameShape(y));
  EnsureShapeNoZero(x.rows(), x.cols(), out);
  const float* xd = x.data();
  const float* yd = y.data();
  float* od = out->data();
  ParallelFor(0, x.padded_size(), kMinWorkPerChunk, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) od[i] = xd[i] * yd[i];
  });
}

// PUP_HOT
void Scale(float alpha, const Matrix& x, Matrix* out) {
  EnsureShapeNoZero(x.rows(), x.cols(), out);
  const float* xd = x.data();
  float* od = out->data();
  ParallelFor(0, x.padded_size(), kMinWorkPerChunk, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) od[i] = alpha * xd[i];
  });
}

// PUP_HOT
void Tanh(const Matrix& x, Matrix* out) {
  EnsureShapeNoZero(x.rows(), x.cols(), out);
  const simd::Backend& be = simd::Active();
  const float* xd = x.data();
  float* od = out->data();
  // tanh costs far more than one scalar op per element; use a small grain.
  ParallelFor(0, x.padded_size(), kMinWorkPerChunk / 16,
              [&](size_t lo, size_t hi) { be.tanh(xd, od, lo, hi); });
}

// PUP_HOT
void Sigmoid(const Matrix& x, Matrix* out) {
  EnsureShapeNoZero(x.rows(), x.cols(), out);
  const simd::Backend& be = simd::Active();
  const float* xd = x.data();
  float* od = out->data();
  ParallelFor(0, x.padded_size(), kMinWorkPerChunk / 16,
              [&](size_t lo, size_t hi) { be.sigmoid(xd, od, lo, hi); });
}

// PUP_HOT
void LeakyRelu(const Matrix& x, float slope, Matrix* out) {
  EnsureShapeNoZero(x.rows(), x.cols(), out);
  const float* xd = x.data();
  float* od = out->data();
  ParallelFor(0, x.padded_size(), kMinWorkPerChunk, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      float v = xd[i];
      od[i] = v > 0.0f ? v : slope * v;
    }
  });
}

// PUP_HOT
void GatherRows(const Matrix& table, const std::vector<uint32_t>& idx,
                Matrix* out) {
  PUP_OBS_COUNT("la/gather_rows", 1);
  EnsureShapeNoZero(idx.size(), table.cols(), out);
  const size_t cols = table.cols();
  ParallelFor(0, idx.size(), RowGrain(cols), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      PUP_DCHECK(idx[i] < table.rows());
      const float* src = table.Row(idx[i]);
      std::copy(src, src + cols, out->Row(i));
    }
  });
}

// PUP_HOT
void GatherRowsAdd(const Matrix& table_a, const std::vector<uint32_t>& idx_a,
                   const Matrix& table_b, const std::vector<uint32_t>& idx_b,
                   Matrix* out) {
  PUP_OBS_COUNT("la/gather_rows_add", 1);
  PUP_CHECK_EQ(idx_a.size(), idx_b.size());
  PUP_CHECK_EQ(table_a.cols(), table_b.cols());
  const size_t cols = table_a.cols();
  EnsureShapeNoZero(idx_a.size(), cols, out);
  ParallelFor(0, idx_a.size(), RowGrain(2 * cols), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      PUP_DCHECK(idx_a[i] < table_a.rows() && idx_b[i] < table_b.rows());
      const float* ra = table_a.Row(idx_a[i]);
      const float* rb = table_b.Row(idx_b[i]);
      float* dst = out->Row(i);
      for (size_t j = 0; j < cols; ++j) dst[j] = ra[j] + rb[j];
    }
  });
}

// PUP_HOT
void ScatterAddRows(const Matrix& src, const std::vector<uint32_t>& idx,
                    Matrix* table) {
  PUP_OBS_COUNT("la/scatter_add_rows", 1);
  PUP_CHECK_EQ(src.rows(), idx.size());
  PUP_CHECK_EQ(src.cols(), table->cols());
  const size_t d = src.cols();
  const size_t shards = ThreadPool::Global().num_threads();
  if (shards <= 1 || idx.size() * d < 2 * kMinWorkPerChunk) {
    for (size_t i = 0; i < idx.size(); ++i) {
      PUP_DCHECK(idx[i] < table->rows());
      const float* s = src.Row(i);
      float* dst = table->Row(idx[i]);
      for (size_t j = 0; j < d; ++j) dst[j] += s[j];
    }
    return;
  }
  // Deterministic sharding: shard s owns destination rows with
  // idx % shards == s, so shards touch disjoint table rows and each
  // destination row accumulates its contributions in ascending i — the
  // exact serial order. Results are bitwise-identical to the serial loop
  // for any shard count; duplicates in idx are handled by construction.
  // One shard per chunk: shards are already sized to the pool, so any
  // coarser grain would idle workers.
  constexpr size_t kOneShardPerChunk = 1;
  ParallelFor(0, shards, kOneShardPerChunk, [&](size_t lo, size_t hi) {
    for (size_t s = lo; s < hi; ++s) {
      for (size_t i = 0; i < idx.size(); ++i) {
        if (idx[i] % shards != s) continue;
        PUP_DCHECK(idx[i] < table->rows());
        const float* src_row = src.Row(i);
        float* dst = table->Row(idx[i]);
        for (size_t j = 0; j < d; ++j) dst[j] += src_row[j];
      }
    }
  });
}

// PUP_HOT
void RowDot(const Matrix& x, const Matrix& y, Matrix* out) {
  PUP_OBS_COUNT("la/row_dot", 1);
  PUP_CHECK(x.SameShape(y));
  EnsureShapeNoZero(x.rows(), 1, out);
  const size_t cols = x.cols();
  const simd::Backend& be = simd::Active();
  ParallelFor(0, x.rows(), RowGrain(cols), [&](size_t lo, size_t hi) {
    be.dot_rows(x.data(), x.stride(), y.data(), y.stride(), nullptr,
                out->data(), lo, hi, cols);
  });
}

// PUP_HOT
void RowDotDiff(const Matrix& x, const Matrix& a, const Matrix& b,
                Matrix* out) {
  PUP_OBS_COUNT("la/row_dot_diff", 1);
  PUP_CHECK(x.SameShape(a));
  PUP_CHECK(x.SameShape(b));
  EnsureShapeNoZero(x.rows(), 1, out);
  const size_t cols = x.cols();
  const simd::Backend& be = simd::Active();
  // Both dots of a block of rows land in stack buffers, then one subtract
  // per row — bitwise-identical to RowDot(x, b) − RowDot(x, a) at any
  // thread count.
  constexpr size_t kBlock = 64;
  float* o = out->data();
  ParallelFor(0, x.rows(), RowGrain(2 * cols), [&](size_t lo, size_t hi) {
    float dot_a[kBlock], dot_b[kBlock];
    for (size_t r = lo; r < hi; r += kBlock) {
      const size_t len = std::min(kBlock, hi - r);
      be.dot_rows(x.Row(r), x.stride(), b.Row(r), b.stride(), nullptr, dot_b,
                  0, len, cols);
      be.dot_rows(x.Row(r), x.stride(), a.Row(r), a.stride(), nullptr, dot_a,
                  0, len, cols);
      for (size_t i = 0; i < len; ++i) o[r + i] = dot_b[i] - dot_a[i];
    }
  });
}

// PUP_HOT
void RowSum(const Matrix& x, Matrix* out) {
  EnsureShapeNoZero(x.rows(), 1, out);
  const size_t cols = x.cols();
  ParallelFor(0, x.rows(), RowGrain(cols), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const float* xr = x.Row(i);
      float acc = 0.0f;
      for (size_t j = 0; j < cols; ++j) acc += xr[j];
      (*out)(i, 0) = acc;
    }
  });
}

// PUP_HOT
void RowScale(const Matrix& x, const Matrix& s, Matrix* out) {
  PUP_CHECK_EQ(s.rows(), x.rows());
  PUP_CHECK_EQ(s.cols(), 1u);
  EnsureShapeNoZero(x.rows(), x.cols(), out);
  const size_t cols = x.cols();
  ParallelFor(0, x.rows(), RowGrain(cols), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const float f = s(i, 0);
      const float* xr = x.Row(i);
      float* orow = out->Row(i);
      for (size_t j = 0; j < cols; ++j) orow[j] = xr[j] * f;
    }
  });
}

double Sum(const Matrix& x) {
  return ChunkedReduce(x.size(), [&x](size_t lo, size_t hi) {
    double acc = 0.0;
    ForEachLogicalRun(x, lo, hi, [&acc](const float* p, size_t len) {
      for (size_t i = 0; i < len; ++i) acc += p[i];
    });
    return acc;
  });
}

double SquaredNorm(const Matrix& x) {
  return ChunkedReduce(x.size(), [&x](size_t lo, size_t hi) {
    double acc = 0.0;
    ForEachLogicalRun(x, lo, hi, [&acc](const float* p, size_t len) {
      for (size_t i = 0; i < len; ++i) {
        acc += static_cast<double>(p[i]) * p[i];
      }
    });
    return acc;
  });
}

double Dot(const Matrix& x, const Matrix& y) {
  PUP_CHECK(x.SameShape(y));
  return ChunkedReduce(x.size(), [&x, &y](size_t lo, size_t hi) {
    double acc = 0.0;
    ForEachLogicalRun2(x, y, lo, hi,
                       [&acc](const float* px, const float* py, size_t len) {
                         for (size_t i = 0; i < len; ++i) {
                           acc += static_cast<double>(px[i]) * py[i];
                         }
                       });
    return acc;
  });
}

float MaxAbs(const Matrix& x) {
  // max is exactly associative, so the chunked combine is bitwise-stable
  // for every thread count.
  const size_t n = x.size();
  constexpr size_t kGrain = kMinWorkPerChunk;
  auto chunk_max = [&x](size_t lo, size_t hi) {
    float m = 0.0f;
    ForEachLogicalRun(x, lo, hi, [&m](const float* p, size_t len) {
      for (size_t i = 0; i < len; ++i) m = std::max(m, std::abs(p[i]));
    });
    return m;
  };
  if (n <= kGrain || ThreadPool::Global().num_threads() <= 1) {
    return chunk_max(0, n);
  }
  const size_t num_chunks = (n + kGrain - 1) / kGrain;
  std::vector<float> partial(num_chunks, 0.0f);
  ParallelFor(0, n, kGrain, [&](size_t lo, size_t hi) {
    partial[lo / kGrain] = chunk_max(lo, hi);
  });
  float m = 0.0f;
  for (float p : partial) m = std::max(m, p);
  return m;
}

// PUP_HOT: the serving full-ranking hot path; writes into caller-owned
// buffers and must not allocate.
void ScoreItemsForUser(const Matrix& items, const float* user,
                       const float* bias, float* out) {
  PUP_OBS_COUNT("la/score_user", 1);
  const size_t n = items.rows();
  const size_t d = items.cols();
  const simd::Backend& be = simd::Active();
  ParallelFor(0, n, RowGrain(d), [&](size_t lo, size_t hi) {
    be.dot_rows(items.data(), items.stride(), user, 0, bias, out, lo, hi, d);
  });
}

// Item rows per tile of the batched scorer: at d = 64 a tile is 16 KB,
// so it stays cache-resident while every user of the batch dots it.
constexpr size_t kItemTile = 64;

size_t ScoreItemsForUsersGrain(size_t m, size_t d) {
  return (RowGrain(d * m) + kItemTile - 1) / kItemTile * kItemTile;
}

// PUP_HOT: one chunk of a serving micro-batch's pass, on the calling
// thread.
void ScoreItemsForUsers(const Matrix& items, const Matrix& users,
                        const float* bias, size_t lo, size_t hi, Matrix* out) {
  if (lo == 0) PUP_OBS_COUNT("la/score_batch", 1);
  PUP_CHECK_EQ(users.cols(), items.cols());
  PUP_CHECK_EQ(out->rows(), users.rows());
  PUP_CHECK_EQ(out->cols(), items.rows());
  PUP_CHECK(lo <= hi && hi <= items.rows());
  const size_t m = users.rows();
  const size_t d = users.cols();
  const simd::Backend& be = simd::Active();
  // Item tiles outer, users inner, so a pass reads each item row from
  // memory once. Every (user, item) score is the same seeded dot that
  // ScoreItemsForUser computes, so neither batching nor the split into
  // chunks changes a score.
  for (size_t t = lo; t < hi; t += kItemTile) {
    const size_t t_hi = std::min(hi, t + kItemTile);
    for (size_t r = 0; r < m; ++r) {
      be.dot_rows(items.data(), items.stride(), users.Row(r), 0, bias,
                  out->Row(r), t, t_hi, d);
    }
  }
}

// PUP_HOT: candidate re-rank path; a one-row dot per candidate, seeded
// with its bias, keeps the accumulation identical to the full-ranking
// path.
void ScoreItemsSubset(const Matrix& items, const float* user,
                      const float* bias, const uint32_t* idx, size_t n_idx,
                      float* out) {
  PUP_OBS_COUNT("la/score_subset", 1);
  const size_t d = items.cols();
  const simd::Backend& be = simd::Active();
  ParallelFor(0, n_idx, RowGrain(d), [&](size_t lo, size_t hi) {
    for (size_t j = lo; j < hi; ++j) {
      PUP_DCHECK(idx[j] < items.rows());
      be.dot_rows(items.Row(idx[j]), 0, user, 0,
                  bias != nullptr ? bias + idx[j] : nullptr, out + j, 0, 1, d);
    }
  });
}

// PUP_HOT: the quantized serving scan; writes into caller-owned buffers
// and must not allocate.
void ScoreItemsQuantized(const QuantizedTable& table,
                         const QuantizedQuery& query, const float* bias,
                         int32_t* acc, float* out) {
  PUP_OBS_COUNT("la/score_quant", 1);
  PUP_CHECK(query.mode == table.mode());
  PUP_CHECK_EQ(query.d, table.cols());
  const size_t n = table.rows();
  const size_t stride = table.row_stride();
  const simd::Backend& be = simd::Active();
  const float su = query.scale;
  const float psum = static_cast<float>(query.code_sum);
  const float* scales = table.scales().data();
  const float* mins = table.mins().data();
  const int8_t* qcodes = query.codes.data();
  const bool int4 = table.mode() == QuantMode::kInt4;
  // The 16-byte-aligned prefix that covers the logical columns; codes
  // beyond it are pad zeros the kernels skip (halves the int4 scan,
  // whose packed rows fill at most half the 64-byte-aligned stride).
  const size_t data_bytes = int4 ? (table.cols() + 1) / 2 : table.cols();
  const size_t bytes =
      std::min(stride, (data_bytes + size_t{15}) & ~size_t{15});
  ParallelFor(0, n, RowGrain(table.cols()), [&](size_t lo, size_t hi) {
    if (int4) {
      be.qdot_i4_rows(table.codes(), stride, bytes, qcodes, qcodes + stride,
                      acc, lo, hi);
    } else {
      be.qdot_i8_rows(table.codes(), stride, bytes, qcodes, acc, lo, hi);
    }
    // Fixed-order scalar dequant epilogue (docs/quantization.md): per
    // element, so chunk boundaries and backends cannot change a float.
    for (size_t i = lo; i < hi; ++i) {
      float s = scales[i] * su * static_cast<float>(acc[i]) +
                mins[i] * su * psum;
      if (bias != nullptr) s += bias[i];
      out[i] = s;
    }
  });
}

// PUP_HOT: quantized-path survivor re-rank; must not allocate.
void ScoreItemsRerank(const Matrix& items, const float* user,
                      const float* bias, const uint32_t* ids, size_t n_ids,
                      float* out) {
  PUP_OBS_COUNT("la/score_rerank", 1);
  const size_t d = items.cols();
  const simd::Backend& be = simd::Active();
  ParallelFor(0, n_ids, RowGrain(d), [&](size_t lo, size_t hi) {
    be.rerank_dot_rows(items.data(), items.stride(), user, ids, out, lo, hi,
                       d);
    if (bias != nullptr) {
      for (size_t j = lo; j < hi; ++j) {
        PUP_DCHECK(ids[j] < items.rows());
        out[j] += bias[ids[j]];
      }
    }
  });
}

// PUP_HOT: runs inside every guarded training step; must not allocate.
bool AllFinite(const Matrix& x) { return FirstNonFinite(x) == x.size(); }

NonFiniteCounts CountNonFinite(const Matrix& x) {
  NonFiniteCounts counts;
  const size_t n = x.size();
  // Verdict and first index come from the same dispatched scan AllFinite
  // uses; the element-wise counting below only runs on the failure path.
  counts.first_index = FirstNonFinite(x);
  for (size_t i = counts.first_index; i < n; ++i) {
    const float v = x.FlatAt(i);
    counts.nans += std::isnan(v) ? 1 : 0;
    counts.infs += std::isinf(v) ? 1 : 0;
  }
  return counts;
}

}  // namespace pup::la
