// Micro-benchmarks (google-benchmark) for the compute kernels and the
// eq. (7) decoder trick the paper highlights in §IV-B, plus --threads
// sweeps that record parallel speedup vs the serial baseline. Run with
// --benchmark_format=json to get the speedup counters in the JSON output.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "autograd/arena.h"
#include "autograd/numeric_guard.h"
#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "eval/metrics.h"
#include "graph/hetero_graph.h"
#include "la/kernels.h"
#include "la/qmatrix.h"
#include "obs/registry.h"

namespace {

using namespace pup;

la::Matrix RandomMatrix(size_t r, size_t c, uint64_t seed) {
  Rng rng(seed);
  return la::Matrix::Uniform(r, c, -1.0f, 1.0f, &rng);
}

// Representative hetero-graph adjacency for SpMM benchmarks.
la::CsrMatrix MakeAdjacency(size_t users, size_t items, size_t edges) {
  Rng rng(9);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(edges);
  for (size_t e = 0; e < edges; ++e) {
    pairs.emplace_back(static_cast<uint32_t>(rng.NextBelow(users)),
                       static_cast<uint32_t>(rng.NextBelow(items)));
  }
  std::vector<uint32_t> cats(items), prices(items);
  for (size_t i = 0; i < items; ++i) {
    cats[i] = static_cast<uint32_t>(rng.NextBelow(30));
    prices[i] = static_cast<uint32_t>(rng.NextBelow(10));
  }
  graph::HeteroGraph g(users, items, 30, 10, pairs, cats, prices);
  return g.adjacency();
}

void BM_Gemm(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  la::Matrix a = RandomMatrix(n, n, 1), b = RandomMatrix(n, n, 2), out;
  for (auto _ : state) {
    la::Gemm(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

void BM_SpmmHeteroGraph(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  la::CsrMatrix adj = MakeAdjacency(2000, 1200, 40000);
  la::Matrix emb = RandomMatrix(adj.cols(), dim, 3), out;
  for (auto _ : state) {
    la::Spmm(adj, emb, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * dim);
}
BENCHMARK(BM_SpmmHeteroGraph)->Arg(8)->Arg(32)->Arg(64);

void BM_GatherRows(benchmark::State& state) {
  la::Matrix table = RandomMatrix(5000, 64, 4);
  Rng rng(5);
  std::vector<uint32_t> idx(1024);
  for (auto& v : idx) v = static_cast<uint32_t>(rng.NextBelow(5000));
  la::Matrix out;
  for (auto _ : state) {
    la::GatherRows(table, idx, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GatherRows);

// --- eq. (7): naive O(k²·d) pairwise decoder vs the linear-time trick ---

constexpr size_t kBatch = 1024;
constexpr size_t kDim = 64;

// Naive: explicit sum over all feature pairs.
void BM_FmDecoderNaive(benchmark::State& state) {
  size_t num_fields = static_cast<size_t>(state.range(0));
  std::vector<la::Matrix> fields;
  for (size_t f = 0; f < num_fields; ++f) {
    fields.push_back(RandomMatrix(kBatch, kDim, 10 + f));
  }
  la::Matrix dot, acc(kBatch, 1);
  for (auto _ : state) {
    acc.Zero();
    for (size_t f = 0; f < num_fields; ++f) {
      for (size_t g = f + 1; g < num_fields; ++g) {
        la::RowDot(fields[f], fields[g], &dot);
        la::Axpy(1.0f, dot, &acc);
      }
    }
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_FmDecoderNaive)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// Trick: ½(‖Σe‖² − Σ‖e‖²) per row — linear in the number of fields.
void BM_FmDecoderEq7(benchmark::State& state) {
  size_t num_fields = static_cast<size_t>(state.range(0));
  std::vector<la::Matrix> fields;
  for (size_t f = 0; f < num_fields; ++f) {
    fields.push_back(RandomMatrix(kBatch, kDim, 10 + f));
  }
  la::Matrix sum(kBatch, kDim), sq, acc, self;
  for (auto _ : state) {
    sum.Zero();
    la::Matrix self_total(kBatch, 1);
    for (const auto& f : fields) {
      la::Axpy(1.0f, f, &sum);
      la::RowDot(f, f, &self);
      la::Axpy(1.0f, self, &self_total);
    }
    la::RowDot(sum, sum, &sq);
    la::Axpy(-1.0f, self_total, &sq);
    la::Scale(0.5f, sq, &acc);
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_FmDecoderEq7)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// --- NumericGuard cost (Arg: 0 = guard off, 1 = guard on). -------------
//
// One arena-backed training step at bench scale — tanh(Â·E) over a
// 3200-node graph, the fused BPR + L2 head on a 1024-triple batch,
// backward and an SGD update — plus, in Arg(1), the two tape scans the
// trainer runs under --check-numerics. The Arg(0) case records the
// unguarded per-step time (registration order guarantees it runs first)
// and reports check_numerics_overhead = 0; the Arg(1) case reports the
// relative slowdown (guarded/unguarded - 1). The acceptance bar is
// < 0.05. guard_allocs_per_step must read 0 in both cases: the guard's
// clean path is allocation-free.
double& UnguardedStepSeconds() {
  static double seconds = 0.0;
  return seconds;
}

void BM_TrainStepCheckNumerics(benchmark::State& state) {
  const bool guarded = state.range(0) != 0;
  la::CsrMatrix adj = MakeAdjacency(2000, 1200, 40000);
  la::CsrMatrix adj_t = adj.Transposed();
  Rng rng(7);
  ag::Tensor emb =
      ag::Param(la::Matrix::Gaussian(adj.rows(), 56, 0.05f, &rng));
  ag::Sgd opt({emb}, 0.05f);
  std::vector<uint32_t> users(1024), pos(1024), neg(1024);
  for (size_t k = 0; k < 1024; ++k) {
    users[k] = static_cast<uint32_t>(rng.NextBelow(2000));
    pos[k] = 2000 + static_cast<uint32_t>(rng.NextBelow(1200));
    neg[k] = 2000 + static_cast<uint32_t>(rng.NextBelow(1200));
  }
  ag::TapeArena arena;
  ag::NumericGuard guard;
  auto step = [&] {
    ag::TapeArena::Scope scope(&arena);
    ag::Tensor f = ag::Tanh(ag::Spmm(&adj, &adj_t, emb));
    ag::Tensor u = ag::Gather(f, users);
    ag::Tensor p = ag::Gather(f, pos);
    ag::Tensor n = ag::Gather(f, neg);
    ag::Tensor loss =
        ag::FusedL2Penalty(ag::RowDotSigmoidBpr(u, p, n), {u, p, n}, 1e-4f);
    if (guarded) PUP_CHECK(!guard.CheckForward(loss).found);
    opt.ZeroGrad();
    ag::Backward(loss);
    if (guarded) PUP_CHECK(!guard.CheckBackward(loss).found);
    opt.Step();
    arena.Reset();
  };
  step();
  step();
  const la::AllocStats alloc0 = la::MatrixAllocStats();
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    step();
    benchmark::DoNotOptimize(emb->value.data());
    ++iters;
  }
  const double seconds = timer.Seconds();
  const la::AllocStats alloc1 = la::MatrixAllocStats();
  const double per_iter = seconds / static_cast<double>(iters);
  state.counters["guard_allocs_per_step"] =
      static_cast<double>(alloc1.count - alloc0.count) /
      static_cast<double>(iters);
  if (!guarded) {
    UnguardedStepSeconds() = per_iter;
    state.counters["check_numerics_overhead"] = 0.0;
  } else if (UnguardedStepSeconds() > 0.0) {
    state.counters["check_numerics_overhead"] =
        per_iter / UnguardedStepSeconds() - 1.0;
  }
}
BENCHMARK(BM_TrainStepCheckNumerics)->Arg(0)->Arg(1);

// --- pup::obs cost (Arg: 0 = metrics off, 1 = metrics on). -------------
//
// One arena-backed training step at bench scale — tanh(Â·E) over a
// 3200-node graph, the fused BPR + L2 head on a 1024-triple batch,
// backward and an SGD update — run with the global metrics switch
// toggled. The step passes through every instrumented layer (la dispatch
// counters, thread-pool spans) and adds the same scoped timer the
// trainer wraps around RunBatchStep, so Arg(1) measures the real
// end-to-end recording cost. Registration order guarantees the
// metrics-off baseline runs first; the Arg(1) case reports
// metrics_overhead = on/off - 1 with an acceptance bar of < 0.03.
// obs_allocs_per_step must read 0 in both cases: steady-state recording
// through cached handles is allocation-free by contract.
double& MetricsOffStepSeconds() {
  static double seconds = 0.0;
  return seconds;
}

void BM_TrainStepMetrics(benchmark::State& state) {
  const bool metrics_on = state.range(0) != 0;
  obs::SetEnabled(metrics_on);
  la::CsrMatrix adj = MakeAdjacency(2000, 1200, 40000);
  la::CsrMatrix adj_t = adj.Transposed();
  Rng rng(7);
  ag::Tensor emb =
      ag::Param(la::Matrix::Gaussian(adj.rows(), 56, 0.05f, &rng));
  ag::Sgd opt({emb}, 0.05f);
  std::vector<uint32_t> users(1024), pos(1024), neg(1024);
  for (size_t k = 0; k < 1024; ++k) {
    users[k] = static_cast<uint32_t>(rng.NextBelow(2000));
    pos[k] = 2000 + static_cast<uint32_t>(rng.NextBelow(1200));
    neg[k] = 2000 + static_cast<uint32_t>(rng.NextBelow(1200));
  }
  ag::TapeArena arena;
  auto step = [&] {
    PUP_OBS_SCOPED_TIMER("bench/train_step");
    ag::TapeArena::Scope scope(&arena);
    ag::Tensor f = ag::Tanh(ag::Spmm(&adj, &adj_t, emb));
    ag::Tensor u = ag::Gather(f, users);
    ag::Tensor p = ag::Gather(f, pos);
    ag::Tensor n = ag::Gather(f, neg);
    ag::Tensor loss =
        ag::FusedL2Penalty(ag::RowDotSigmoidBpr(u, p, n), {u, p, n}, 1e-4f);
    opt.ZeroGrad();
    ag::Backward(loss);
    opt.Step();
    arena.Reset();
  };
  step();
  step();
  const uint64_t obs_allocs0 = obs::AllocationCount();
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    step();
    benchmark::DoNotOptimize(emb->value.data());
    ++iters;
  }
  const double seconds = timer.Seconds();
  const uint64_t obs_allocs1 = obs::AllocationCount();
  const double per_iter = seconds / static_cast<double>(iters);
  state.counters["obs_allocs_per_step"] =
      static_cast<double>(obs_allocs1 - obs_allocs0) /
      static_cast<double>(iters);
  if (!metrics_on) {
    MetricsOffStepSeconds() = per_iter;
    state.counters["metrics_overhead"] = 0.0;
  } else if (MetricsOffStepSeconds() > 0.0) {
    state.counters["metrics_overhead"] =
        per_iter / MetricsOffStepSeconds() - 1.0;
  }
  obs::SetEnabled(true);
}
BENCHMARK(BM_TrainStepMetrics)->Arg(0)->Arg(1);

// --- --threads sweeps: 1, 2, 4, hardware concurrency -------------------
//
// Each family runs its serial (threads=1) case first; later thread counts
// report "speedup_vs_serial" in the counters, which land in the harness
// JSON output under benchmarks[i].speedup_vs_serial.

int HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Serial per-iteration seconds for each sweep family, recorded by the
// threads=1 case (benchmarks execute in registration order).
std::map<std::string, double>& SerialBaseline() {
  static std::map<std::string, double> baseline;
  return baseline;
}

void RecordSweep(benchmark::State& state, const std::string& family,
                 int threads, double seconds, size_t iterations) {
  const double per_iter = seconds / static_cast<double>(iterations);
  if (threads == 1) SerialBaseline()[family] = per_iter;
  state.counters["pool_threads"] = static_cast<double>(threads);
  auto it = SerialBaseline().find(family);
  if (it != SerialBaseline().end() && per_iter > 0.0) {
    state.counters["speedup_vs_serial"] = it->second / per_iter;
  }
}

void BM_GemmThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ThreadPool::SetGlobalThreads(threads);
  // The acceptance-size GEMM: (512,64) x (64,512).
  la::Matrix a = RandomMatrix(512, 64, 1), b = RandomMatrix(64, 512, 2), out;
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    la::Gemm(a, b, &out);
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  const double seconds = timer.Seconds();
  state.SetItemsProcessed(state.iterations() * 512 * 64 * 512);
  RecordSweep(state, "gemm_512x64x512", threads, seconds, iters);
  ThreadPool::SetGlobalThreads(0);
}
BENCHMARK(BM_GemmThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(HardwareThreads());

void BM_SpmmThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ThreadPool::SetGlobalThreads(threads);
  la::CsrMatrix adj = MakeAdjacency(2000, 1200, 40000);
  la::Matrix emb = RandomMatrix(adj.cols(), 64, 3), out;
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    la::Spmm(adj, emb, &out);
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  const double seconds = timer.Seconds();
  state.SetItemsProcessed(state.iterations() * adj.nnz() * 64);
  RecordSweep(state, "spmm_hetero_d64", threads, seconds, iters);
  ThreadPool::SetGlobalThreads(0);
}
BENCHMARK(BM_SpmmThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(HardwareThreads());

// Full-ranking evaluation: every item scored for every test user.
class EmbeddingScorer : public eval::Scorer {
 public:
  EmbeddingScorer(la::Matrix users, la::Matrix items)
      : users_(std::move(users)), items_(std::move(items)) {}

  void ScoreItems(uint32_t user, std::vector<float>* out) const override {
    const size_t n = items_.rows(), d = items_.cols();
    out->resize(n);
    const float* u = users_.Row(user);
    for (size_t i = 0; i < n; ++i) {
      const float* v = items_.Row(i);
      float acc = 0.0f;
      for (size_t j = 0; j < d; ++j) acc += u[j] * v[j];
      (*out)[i] = acc;
    }
  }

 private:
  la::Matrix users_, items_;
};

void BM_EvaluateRankingThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ThreadPool::SetGlobalThreads(threads);
  constexpr size_t kUsers = 256, kItems = 2000;
  EmbeddingScorer scorer(RandomMatrix(kUsers, 64, 21),
                         RandomMatrix(kItems, 64, 22));
  Rng rng(23);
  std::vector<std::vector<uint32_t>> exclude(kUsers), test(kUsers);
  for (size_t u = 0; u < kUsers; ++u) {
    for (int t = 0; t < 3; ++t) {
      test[u].push_back(static_cast<uint32_t>(rng.NextBelow(kItems)));
      exclude[u].push_back(static_cast<uint32_t>(rng.NextBelow(kItems)));
    }
    std::sort(test[u].begin(), test[u].end());
    std::sort(exclude[u].begin(), exclude[u].end());
  }
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    auto result =
        eval::EvaluateRanking(scorer, kUsers, kItems, exclude, test, {50});
    benchmark::DoNotOptimize(result.num_users_evaluated);
    ++iters;
  }
  const double seconds = timer.Seconds();
  state.SetItemsProcessed(state.iterations() * kUsers * kItems);
  RecordSweep(state, "evaluate_ranking_256x2000", threads, seconds, iters);
  ThreadPool::SetGlobalThreads(0);
}
BENCHMARK(BM_EvaluateRankingThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(HardwareThreads());

// --- --simd sweeps: scalar golden path vs every vector backend ---------
//
// Each family runs its --simd=off case first (registration order), then
// every backend the host supports. Vectorized cases report
// "speedup_vs_scalar" — vector per-iter time relative to the scalar
// golden path at the same shape and thread count — plus "gflops" from
// the family's nominal flop count (2·k per dot lane, transcendental
// elementwise counted at its polynomial cost), and "lane_width" so the
// JSON rows are self-describing.

std::map<std::string, double>& ScalarBaseline() {
  static std::map<std::string, double> baseline;
  return baseline;
}

void RecordSimdSweep(benchmark::State& state, const std::string& family,
                     simd::Isa isa, double seconds, size_t iterations,
                     double flops_per_iter) {
  const double per_iter = seconds / static_cast<double>(iterations);
  if (isa == simd::Isa::kOff) ScalarBaseline()[family] = per_iter;
  state.counters["lane_width"] =
      static_cast<double>(simd::IsaLaneWidth(isa));
  if (per_iter > 0.0) {
    state.counters["gflops"] = flops_per_iter / per_iter / 1e9;
    auto it = ScalarBaseline().find(family);
    if (it != ScalarBaseline().end()) {
      state.counters["speedup_vs_scalar"] = it->second / per_iter;
    }
  }
  state.SetLabel(simd::IsaName(isa));
}

// Registers Arg(kOff) first, then kAvx2 when this host can run it.
void SimdSweepArgs(benchmark::internal::Benchmark* b) {
  b->Arg(static_cast<int>(simd::Isa::kOff));
  if (simd::IsaSupported(simd::Isa::kAvx2)) {
    b->Arg(static_cast<int>(simd::Isa::kAvx2));
  }
}

// Pins the requested backend for the timed loop, restoring the
// harness-selected one (PUP_BENCH_SIMD or auto) afterwards.
class ScopedIsa {
 public:
  explicit ScopedIsa(simd::Isa isa) : prev_(simd::ActiveIsa()) {
    simd::SetActiveIsa(isa);
  }
  ~ScopedIsa() { simd::SetActiveIsa(prev_); }

 private:
  simd::Isa prev_;
};

void BM_RowDotSimd(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  ScopedIsa pin(isa);
  constexpr size_t kRows = 4096, kD = 64;
  la::Matrix x = RandomMatrix(kRows, kD, 1), y = RandomMatrix(kRows, kD, 2);
  la::Matrix out;
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    la::RowDot(x, y, &out);
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  RecordSimdSweep(state, "row_dot_4096x64", isa, timer.Seconds(), iters,
                  2.0 * kRows * kD);
}
BENCHMARK(BM_RowDotSimd)->Apply(SimdSweepArgs);

void BM_GemmSimd(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  ScopedIsa pin(isa);
  constexpr size_t kM = 256, kK = 64, kN = 256;
  la::Matrix a = RandomMatrix(kM, kK, 3), b = RandomMatrix(kK, kN, 4), out;
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    la::Gemm(a, b, &out);
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  RecordSimdSweep(state, "gemm_256x64x256", isa, timer.Seconds(), iters,
                  2.0 * kM * kK * kN);
}
BENCHMARK(BM_GemmSimd)->Apply(SimdSweepArgs);

void BM_GemmTransBSimd(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  ScopedIsa pin(isa);
  constexpr size_t kM = 512, kK = 64, kN = 512;
  la::Matrix a = RandomMatrix(kM, kK, 5), b = RandomMatrix(kN, kK, 6), out;
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    la::GemmTransB(a, b, &out);
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  RecordSimdSweep(state, "gemm_tb_512x64x512", isa, timer.Seconds(), iters,
                  2.0 * kM * kK * kN);
}
BENCHMARK(BM_GemmTransBSimd)->Apply(SimdSweepArgs);

void BM_AxpySimd(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  ScopedIsa pin(isa);
  constexpr size_t kRows = 4096, kD = 64;
  la::Matrix x = RandomMatrix(kRows, kD, 9), out = RandomMatrix(kRows, kD, 10);
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    la::Axpy(0.5f, x, &out);
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  RecordSimdSweep(state, "axpy_4096x64", isa, timer.Seconds(), iters,
                  2.0 * kRows * kD);
}
BENCHMARK(BM_AxpySimd)->Apply(SimdSweepArgs);

void BM_SigmoidSimd(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  ScopedIsa pin(isa);
  constexpr size_t kRows = 4096, kD = 64;
  la::Matrix x = RandomMatrix(kRows, kD, 11), out;
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    la::Sigmoid(x, &out);
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  // Nominal cost of the vector formulation: exp polynomial + divide,
  // ~20 flops per element.
  RecordSimdSweep(state, "sigmoid_4096x64", isa, timer.Seconds(), iters,
                  20.0 * kRows * kD);
}
BENCHMARK(BM_SigmoidSimd)->Apply(SimdSweepArgs);

void BM_TanhSimd(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  ScopedIsa pin(isa);
  constexpr size_t kRows = 4096, kD = 64;
  la::Matrix x = RandomMatrix(kRows, kD, 12), out;
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    la::Tanh(x, &out);
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  // Nominal cost of the rational form: two polynomials + divide,
  // ~15 flops per element.
  RecordSimdSweep(state, "tanh_4096x64", isa, timer.Seconds(), iters,
                  15.0 * kRows * kD);
}
BENCHMARK(BM_TanhSimd)->Apply(SimdSweepArgs);

void BM_FindNonFiniteSimd(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  ScopedIsa pin(isa);
  constexpr size_t kRows = 4096, kD = 64;
  la::Matrix x = RandomMatrix(kRows, kD, 13);
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    bool ok = la::AllFinite(x);
    benchmark::DoNotOptimize(ok);
    ++iters;
  }
  // One exponent-field test per element.
  RecordSimdSweep(state, "all_finite_4096x64", isa, timer.Seconds(), iters,
                  1.0 * kRows * kD);
}
BENCHMARK(BM_FindNonFiniteSimd)->Apply(SimdSweepArgs);

// --- Quantized fastscan vs the f32 serving scan at the same shape ------
//
// bench_serve_load's quant section measures the whole request path; these
// isolate the scoring kernel: one user against an 8192 x 64 item table,
// f32 ScoreItemsForUser vs int8/int4 ScoreItemsQuantized (fastscan +
// dequant epilogue). The f32 family registers first so the quant cases
// can report speedup_vs_f32 at the same ISA.

std::map<int, double>& F32ScanBaseline() {
  static std::map<int, double> baseline;
  return baseline;
}

void BM_ScoreItemsF32Simd(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  ScopedIsa pin(isa);
  constexpr size_t kItems = 8192, kD = 64;
  la::Matrix items = RandomMatrix(kItems, kD, 31);
  la::Matrix user = RandomMatrix(1, kD, 32);
  std::vector<float> bias(kItems, 0.1f), out(kItems);
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    la::ScoreItemsForUser(items, user.Row(0), bias.data(), out.data());
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  const double seconds = timer.Seconds();
  F32ScanBaseline()[state.range(0)] =
      seconds / static_cast<double>(iters);
  state.SetItemsProcessed(state.iterations() * kItems);
  RecordSimdSweep(state, "score_items_f32_8192x64", isa, seconds, iters,
                  2.0 * kItems * kD);
}
BENCHMARK(BM_ScoreItemsF32Simd)->Apply(SimdSweepArgs);

// The serving batch kernel at the serve-f32 ledger shape: one whole pass
// of m users against a 24,000 x 64 item table with a bias, on the
// calling thread, as a lone server caller on a one-thread pool runs it.
// A batch reads the item table once, so "us_per_user" should fall as m
// grows.
void BM_ScoreItemsForUsersF32Simd(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  const size_t m = static_cast<size_t>(state.range(1));
  ScopedIsa pin(isa);
  constexpr size_t kItems = 24000, kD = 64;
  la::Matrix items = RandomMatrix(kItems, kD, 31);
  la::Matrix users = RandomMatrix(m, kD, 33);
  std::vector<float> bias(kItems, 0.1f);
  la::Matrix out(m, kItems);
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    la::ScoreItemsForUsers(items, users, bias.data(), 0, kItems, &out);
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  const double seconds = timer.Seconds();
  state.counters["users"] = static_cast<double>(m);
  state.counters["us_per_user"] =
      1e6 * seconds / static_cast<double>(iters * m);
  state.SetItemsProcessed(state.iterations() * m * kItems);
  const std::string family = "score_users_f32_24000x64_m" + std::to_string(m);
  RecordSimdSweep(state, family, isa, seconds, iters, 2.0 * m * kItems * kD);
}

// SimdSweepArgs for each batch size m in {1, 4, 16}.
void SimdSweepBatchArgs(benchmark::internal::Benchmark* b) {
  for (int m : {1, 4, 16}) {
    b->Args({static_cast<int>(simd::Isa::kOff), m});
    if (simd::IsaSupported(simd::Isa::kAvx2)) {
      b->Args({static_cast<int>(simd::Isa::kAvx2), m});
    }
  }
}
BENCHMARK(BM_ScoreItemsForUsersF32Simd)->Apply(SimdSweepBatchArgs);

void QuantScoreBody(benchmark::State& state, la::QuantMode mode) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  ScopedIsa pin(isa);
  constexpr size_t kItems = 8192, kD = 64;
  la::Matrix items = RandomMatrix(kItems, kD, 31);
  la::Matrix user = RandomMatrix(1, kD, 32);
  auto quantized = la::QuantizedTable::Quantize(items, mode);
  if (!quantized.ok()) {
    state.SkipWithError(quantized.status().ToString().c_str());
    return;
  }
  la::QuantizedTable table = std::move(quantized).value();
  la::QuantizedQuery query;
  query.Reserve(mode, kD);
  query.Prepare(user.Row(0), table);
  std::vector<float> bias(kItems, 0.1f), out(kItems);
  std::vector<int32_t> acc(kItems);
  Stopwatch timer;
  size_t iters = 0;
  for (auto _ : state) {
    la::ScoreItemsQuantized(table, query, bias.data(), acc.data(),
                            out.data());
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  const double seconds = timer.Seconds();
  const double per_iter = seconds / static_cast<double>(iters);
  auto it = F32ScanBaseline().find(state.range(0));
  if (it != F32ScanBaseline().end() && per_iter > 0.0) {
    state.counters["speedup_vs_f32"] = it->second / per_iter;
  }
  state.SetItemsProcessed(state.iterations() * kItems);
  RecordSimdSweep(state,
                  std::string("score_items_") + la::QuantModeName(mode) +
                      "_8192x64",
                  isa, seconds, iters, 2.0 * kItems * kD);
}

void BM_ScoreItemsInt8Simd(benchmark::State& state) {
  QuantScoreBody(state, la::QuantMode::kInt8);
}
BENCHMARK(BM_ScoreItemsInt8Simd)->Apply(SimdSweepArgs);

void BM_ScoreItemsInt4Simd(benchmark::State& state) {
  QuantScoreBody(state, la::QuantMode::kInt4);
}
BENCHMARK(BM_ScoreItemsInt4Simd)->Apply(SimdSweepArgs);

}  // namespace

BENCHMARK_MAIN();
