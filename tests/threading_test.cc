// Tests for the thread-pool execution layer: ParallelFor coverage,
// kernel parity across thread counts, the --threads=1 serial regression
// golden, and a threaded end-to-end training run. This binary carries the
// `tsan` ctest label and is the primary ThreadSanitizer workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/pup_model.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "la/kernels.h"
#include "tiny_mf.h"
#include "train/trainer.h"

namespace pup {
namespace {

// Every test leaves the pool at its default size and the SIMD backend at
// its auto-detected default so other tests (and other suites in this
// binary) start from a known state.
class ThreadingTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::SetGlobalThreads(0);
    simd::SetActiveIsa(simd::DetectBestIsa());
  }
};

using ParallelForTest = ThreadingTest;
using KernelParityTest = ThreadingTest;
using SerialRegressionTest = ThreadingTest;
using ThreadedTrainingTest = ThreadingTest;

la::Matrix RandomMatrix(size_t r, size_t c, uint64_t seed) {
  Rng rng(seed);
  return la::Matrix::Uniform(r, c, -1.0f, 1.0f, &rng);
}

void ExpectBitwiseEqual(const la::Matrix& a, const la::Matrix& b,
                        const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  for (size_t r = 0; r < a.rows(); ++r) {
    ASSERT_EQ(std::memcmp(a.Row(r), b.Row(r), a.cols() * sizeof(float)), 0)
        << what << " diverged across thread counts (row " << r << ")";
  }
}

TEST_F(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool::SetGlobalThreads(4);
  const size_t begins[] = {0, 3, 17};
  const size_t sizes[] = {0, 1, 2, 63, 64, 65, 1000};
  const size_t grains[] = {0, 1, 3, 7, 64, 999, 5000};
  for (size_t begin : begins) {
    for (size_t n : sizes) {
      for (size_t grain : grains) {
        const size_t end = begin + n;
        std::vector<std::atomic<int>> hits(n);
        ParallelFor(begin, end, grain, [&](size_t lo, size_t hi) {
          EXPECT_LE(begin, lo);
          EXPECT_LE(lo, hi);
          EXPECT_LE(hi, end);
          for (size_t i = lo; i < hi; ++i) {
            hits[i - begin].fetch_add(1, std::memory_order_relaxed);
          }
        });
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "index " << begin + i << " (begin=" << begin
              << " n=" << n << " grain=" << grain << ")";
        }
      }
    }
  }
}

TEST_F(ParallelForTest, ChunksAreGrainAlignedWithMultipleThreads) {
  ThreadPool::SetGlobalThreads(4);
  const size_t begin = 5, end = 505, grain = 48;
  std::atomic<int> calls{0};
  ParallelFor(begin, end, grain, [&](size_t lo, size_t hi) {
    calls.fetch_add(1);
    EXPECT_EQ((lo - begin) % grain, 0u);
    EXPECT_LE(hi - lo, grain);
  });
  EXPECT_EQ(calls.load(), static_cast<int>((end - begin + grain - 1) / grain));
}

TEST_F(ParallelForTest, EmptyAndSingleChunkRanges) {
  ThreadPool::SetGlobalThreads(4);
  int calls = 0;
  ParallelFor(10, 10, 4, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(10, 12, 100, [&](size_t lo, size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 10u);
    EXPECT_EQ(hi, 12u);
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelForTest, NestedCallsRunSerially) {
  ThreadPool::SetGlobalThreads(4);
  std::vector<std::atomic<int>> hits(64 * 64);
  ParallelFor(0, 64, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      // The nested region must still cover its range exactly once.
      ParallelFor(0, 64, 3, [&](size_t jlo, size_t jhi) {
        for (size_t j = jlo; j < jhi; ++j) {
          hits[i * 64 + j].fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

// Kernels whose parallel form owns disjoint output rows/elements must be
// bitwise-identical at every thread count.
TEST_F(KernelParityTest, RowAndElementwiseKernelsBitwiseEqual) {
  const la::Matrix a = RandomMatrix(97, 33, 1);
  const la::Matrix b = RandomMatrix(33, 41, 2);
  const la::Matrix bt = RandomMatrix(41, 33, 3);
  const la::Matrix at = RandomMatrix(97, 33, 4);
  Rng rng(5);
  std::vector<uint32_t> idx(301);
  for (auto& v : idx) v = static_cast<uint32_t>(rng.NextBelow(97));

  ThreadPool::SetGlobalThreads(1);
  la::Matrix gemm1, ta1, tb1, tanh1, add1, gather1, rowdot1;
  la::Gemm(a, b, &gemm1);
  la::GemmTransA(a, at, &ta1);
  la::GemmTransB(a, bt, &tb1);
  la::Tanh(a, &tanh1);
  la::Add(a, at, &add1);
  la::GatherRows(a, idx, &gather1);
  la::RowDot(a, at, &rowdot1);

  for (int threads : {2, 4, 7}) {
    ThreadPool::SetGlobalThreads(threads);
    la::Matrix gemm, ta, tb, tanh, add, gather, rowdot;
    la::Gemm(a, b, &gemm);
    la::GemmTransA(a, at, &ta);
    la::GemmTransB(a, bt, &tb);
    la::Tanh(a, &tanh);
    la::Add(a, at, &add);
    la::GatherRows(a, idx, &gather);
    la::RowDot(a, at, &rowdot);
    ExpectBitwiseEqual(gemm1, gemm, "Gemm");
    ExpectBitwiseEqual(ta1, ta, "GemmTransA");
    ExpectBitwiseEqual(tb1, tb, "GemmTransB");
    ExpectBitwiseEqual(tanh1, tanh, "Tanh");
    ExpectBitwiseEqual(add1, add, "Add");
    ExpectBitwiseEqual(gather1, gather, "GatherRows");
    ExpectBitwiseEqual(rowdot1, rowdot, "RowDot");
  }
}

// ScatterAddRows shards destination rows, so duplicate indices must
// accumulate in serial order — bitwise-identical for any thread count.
TEST_F(KernelParityTest, ScatterAddRowsBitwiseEqualWithDuplicates) {
  // Large enough to clear the parallel threshold (rows*cols > 32768).
  const la::Matrix src = RandomMatrix(700, 64, 6);
  std::vector<uint32_t> idx(700);
  Rng rng(7);
  // Heavy duplication: only 13 distinct destination rows.
  for (auto& v : idx) v = static_cast<uint32_t>(rng.NextBelow(13));

  ThreadPool::SetGlobalThreads(1);
  la::Matrix table1 = RandomMatrix(50, 64, 8);
  la::ScatterAddRows(src, idx, &table1);

  for (int threads : {2, 4, 7}) {
    ThreadPool::SetGlobalThreads(threads);
    la::Matrix table = RandomMatrix(50, 64, 8);
    la::ScatterAddRows(src, idx, &table);
    ExpectBitwiseEqual(table1, table, "ScatterAddRows");
  }
}

// Scalar reductions reassociate across chunks; they must agree with the
// serial result to reduction-order tolerance and be deterministic per
// pool size.
TEST_F(KernelParityTest, ReductionsWithinTolerance) {
  const la::Matrix x = RandomMatrix(300, 70, 9);
  const la::Matrix y = RandomMatrix(300, 70, 10);

  ThreadPool::SetGlobalThreads(1);
  const double sum1 = la::Sum(x);
  const double sq1 = la::SquaredNorm(x);
  const double dot1 = la::Dot(x, y);
  const float max1 = la::MaxAbs(x);

  for (int threads : {2, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    EXPECT_NEAR(la::Sum(x), sum1, 1e-5 * (1.0 + std::abs(sum1)));
    EXPECT_NEAR(la::SquaredNorm(x), sq1, 1e-5 * (1.0 + sq1));
    EXPECT_NEAR(la::Dot(x, y), dot1, 1e-5 * (1.0 + std::abs(dot1)));
    EXPECT_EQ(la::MaxAbs(x), max1);  // max is exactly associative.
    // Same pool size, same result: the chunked combine is deterministic.
    EXPECT_EQ(la::Sum(x), la::Sum(x));
  }
}

data::Dataset GoldenDataset() {
  data::SyntheticConfig config =
      data::SyntheticConfig::YelpLike().Scaled(0.04);
  config.num_interactions = 2000;
  config.seed = 123;
  data::Dataset ds = data::GenerateSynthetic(config);
  EXPECT_TRUE(
      data::QuantizeDataset(&ds, 10, data::QuantizationScheme::kUniform)
          .ok());
  return ds;
}

// --threads=1 --simd=off must reproduce the pre-threading serial
// implementation bitwise. The constants below were captured from the
// serial scalar-kernel build: one fixed-seed PUP training epoch, its
// inference scores, and a full-ranking evaluation over them. The scalar
// backend is the golden path (docs/simd.md): vector backends change
// reduction grouping and the sigmoid/tanh approximation, so the goldens
// are only defined at --simd=off. (Recaptured once when the negative
// sampler gained the dense-user complement draw — this 60-item world's
// users hold >half the catalog, so their negative stream moved; see
// docs/sampling.md.)
TEST_F(SerialRegressionTest, SingleThreadMatchesPreThreadingGolden) {
  ThreadPool::SetGlobalThreads(1);
  simd::SetActiveIsa(simd::Isa::kOff);
  data::Dataset ds = GoldenDataset();

  core::PupConfig pc = core::PupConfig::Full();
  pc.embedding_dim = 16;
  pc.category_branch_dim = 4;
  pc.train.epochs = 1;
  pc.train.batch_size = 256;
  pc.train.seed = 42;
  core::Pup model(pc);
  model.Fit(ds, ds.interactions);

  std::vector<float> scores;
  model.ScoreItems(3, &scores);
  ASSERT_EQ(scores.size(), 60u);
  double score_sum = 0.0;
  for (float s : scores) score_sum += s;
  EXPECT_EQ(score_sum, 1.0293070184416138);
  EXPECT_EQ(static_cast<double>(scores[0]), -0.0028165786061435938);
  EXPECT_EQ(static_cast<double>(scores[7]), 0.018861962482333183);

  std::vector<std::vector<uint32_t>> exclude(ds.num_users),
      test(ds.num_users), per_user(ds.num_users);
  for (const auto& x : ds.interactions) per_user[x.user].push_back(x.item);
  for (size_t u = 0; u < ds.num_users; ++u) {
    auto& v = per_user[u];
    size_t cut = v.size() > 2 ? v.size() - 2 : 0;
    exclude[u].assign(v.begin(), v.begin() + cut);
    test[u].assign(v.begin() + cut, v.end());
    std::sort(exclude[u].begin(), exclude[u].end());
    std::sort(test[u].begin(), test[u].end());
  }
  auto res = eval::EvaluateRanking(model, ds.num_users, ds.num_items,
                                   exclude, test, {10, 20});
  EXPECT_EQ(res.num_users_evaluated, 96u);
  EXPECT_EQ(res.At(10).recall, 0.44270833333333331);
  EXPECT_EQ(res.At(20).ndcg, 0.34941063211166196);
}

// The evaluator's fixed per-chunk accumulation means metrics are
// identical for every pool size greater than one, and within tolerance
// of the serial accumulation order.
TEST_F(ThreadedTrainingTest, EvalMetricsStableAcrossThreadCounts) {
  ThreadPool::SetGlobalThreads(1);
  data::Dataset ds = GoldenDataset();
  core::PupConfig pc = core::PupConfig::Full();
  pc.embedding_dim = 16;
  pc.category_branch_dim = 4;
  pc.train.epochs = 1;
  pc.train.batch_size = 256;
  pc.train.seed = 42;
  core::Pup model(pc);
  model.Fit(ds, ds.interactions);

  std::vector<std::vector<uint32_t>> exclude(ds.num_users),
      test(ds.num_users), per_user(ds.num_users);
  for (const auto& x : ds.interactions) per_user[x.user].push_back(x.item);
  for (size_t u = 0; u < ds.num_users; ++u) {
    auto& v = per_user[u];
    size_t cut = v.size() > 2 ? v.size() - 2 : 0;
    exclude[u].assign(v.begin(), v.begin() + cut);
    test[u].assign(v.begin() + cut, v.end());
    std::sort(exclude[u].begin(), exclude[u].end());
    std::sort(test[u].begin(), test[u].end());
  }
  auto serial = eval::EvaluateRanking(model, ds.num_users, ds.num_items,
                                      exclude, test, {10, 20});
  ThreadPool::SetGlobalThreads(4);
  auto t4 = eval::EvaluateRanking(model, ds.num_users, ds.num_items, exclude,
                                  test, {10, 20});
  ThreadPool::SetGlobalThreads(2);
  auto t2 = eval::EvaluateRanking(model, ds.num_users, ds.num_items, exclude,
                                  test, {10, 20});
  EXPECT_EQ(serial.num_users_evaluated, t4.num_users_evaluated);
  EXPECT_NEAR(serial.At(10).recall, t4.At(10).recall, 1e-12);
  EXPECT_NEAR(serial.At(20).ndcg, t4.At(20).ndcg, 1e-12);
  // Identical chunking → identical combine order for any pool size > 1.
  EXPECT_EQ(t2.At(10).recall, t4.At(10).recall);
  EXPECT_EQ(t2.At(20).ndcg, t4.At(20).ndcg);
}


// End-to-end: the same small training run from train_test, re-run with a
// 4-thread pool, must track the serial loss trajectory.
TEST_F(ThreadedTrainingTest, LossTrajectoryMatchesSerial) {
  data::SyntheticConfig config =
      data::SyntheticConfig::YelpLike().Scaled(0.04);
  config.num_interactions = 2000;
  data::Dataset ds = data::GenerateSynthetic(config);

  train::TrainOptions options;
  options.epochs = 4;
  options.batch_size = 256;
  options.seed = 99;

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
    EXPECT_NEAR(serial_history[e].mean_loss, threaded_history[e].mean_loss,
                1e-5)
        << "epoch " << e;
  }
  // Gradient scatter and the row-parallel kernels are deterministic, so
  // the learned embeddings agree to float tolerance as well.
  ASSERT_TRUE(serial.users_->value.SameShape(threaded.users_->value));
  for (size_t i = 0; i < serial.users_->value.size(); ++i) {
    EXPECT_NEAR(serial.users_->value.FlatAt(i),
                threaded.users_->value.FlatAt(i), 1e-4);
  }
}

}  // namespace
}  // namespace pup
