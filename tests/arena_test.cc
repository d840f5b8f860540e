// Tests for the per-step memory-reuse layer: TapeArena node recycling,
// the shape-keyed WorkspaceCache, grad lifetime, the fused hot-path ops
// (GatherAdd, RowDotSigmoidBpr, FusedL2Penalty), and the end-to-end
// bound on the trainer's steady-state allocations.
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "autograd/tensor.h"
#include "common/rng.h"
#include "core/pup_model.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "la/matrix.h"

namespace pup::ag {
namespace {

Tensor RandomParam(size_t r, size_t c, Rng* rng) {
  return Param(la::Matrix::Uniform(r, c, -0.9f, 0.9f, rng));
}

/// Fresh Param holding a copy of `t`'s values (for building an unfused
/// twin graph whose gradients can be compared against the fused one).
Tensor Clone(const Tensor& t) { return Param(t->value); }

void ExpectBitwiseEqual(const la::Matrix& a, const la::Matrix& b,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t r = 0; r < a.rows(); ++r) {
    EXPECT_EQ(std::memcmp(a.Row(r), b.Row(r), a.cols() * sizeof(float)), 0)
        << what << " row " << r;
  }
}

using BuildFn = std::function<Tensor(const std::vector<Tensor>&)>;

/// Central-difference gradient check (same recipe as autograd_test.cc).
void GradCheck(std::vector<Tensor> params, const BuildFn& build,
               float h = 1e-2f, float tol = 2e-2f) {
  Tensor loss = build(params);
  ZeroGradients(loss);
  Backward(loss);
  for (size_t p = 0; p < params.size(); ++p) {
    ASSERT_TRUE(params[p]->grad.SameShape(params[p]->value));
    la::Matrix analytic_grad = params[p]->grad;
    for (size_t r = 0; r < params[p]->value.rows(); ++r) {
      for (size_t c = 0; c < params[p]->value.cols(); ++c) {
        const float saved = params[p]->value(r, c);
        params[p]->value(r, c) = saved + h;
        const float up = build(params)->value(0, 0);
        params[p]->value(r, c) = saved - h;
        const float down = build(params)->value(0, 0);
        params[p]->value(r, c) = saved;
        const float numeric = (up - down) / (2.0f * h);
        const float analytic = analytic_grad(r, c);
        EXPECT_NEAR(analytic, numeric,
                    tol * std::max(1.0f, std::abs(numeric)))
            << "param " << p << " entry (" << r << ", " << c << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Arena mechanics
// ---------------------------------------------------------------------------

TEST(TapeArenaTest, ResetRecyclesTheSameNodeSlots) {
  Rng rng(1);
  Tensor a = RandomParam(3, 4, &rng);
  TapeArena arena;

  Node* first_step_node = nullptr;
  {
    TapeArena::Scope scope(&arena);
    Tensor x = Add(a, a);
    first_step_node = x.get();
  }
  EXPECT_EQ(arena.stats().nodes_created, 1u);
  EXPECT_EQ(arena.stats().nodes_reused, 0u);
  arena.Reset();
  EXPECT_EQ(arena.stats().last_tape_nodes, 1u);

  {
    TapeArena::Scope scope(&arena);
    Tensor y = Add(a, a);
    // Same slot, same address: the step-2 tape recycles step-1's node.
    EXPECT_EQ(y.get(), first_step_node);
    EXPECT_EQ(y->value(0, 0), 2.0f * a->value(0, 0));
  }
  arena.Reset();
  EXPECT_EQ(arena.stats().nodes_created, 1u);
  EXPECT_EQ(arena.stats().nodes_reused, 1u);
  EXPECT_EQ(arena.stats().resets, 2u);
}

TEST(TapeArenaTest, OpsOutsideAnyScopeStillHeapAllocate) {
  Rng rng(2);
  Tensor a = RandomParam(2, 2, &rng);
  const uint64_t before = HeapNodesAllocated();
  Tensor x = Add(a, a);
  EXPECT_EQ(HeapNodesAllocated(), before + 1);
}

TEST(TapeArenaTest, ScopedOpsAllocateNoHeapNodes) {
  Rng rng(3);
  Tensor a = RandomParam(2, 2, &rng);
  TapeArena arena;
  const uint64_t before = HeapNodesAllocated();
  {
    TapeArena::Scope scope(&arena);
    Tensor loss = Mean(Mul(a, a));
    a->ZeroGrad();
    Backward(loss);
  }
  arena.Reset();
  EXPECT_EQ(HeapNodesAllocated(), before);
}

TEST(WorkspaceCacheTest, FullHitRateByStepTwo) {
  Rng rng(4);
  Tensor a = RandomParam(4, 5, &rng);
  Tensor b = RandomParam(5, 3, &rng);
  TapeArena arena;
  auto step = [&] {
    TapeArena::Scope scope(&arena);
    // MatMul backward draws two scratch buffers from the workspace.
    Tensor loss = Mean(MatMul(a, b));
    a->ZeroGrad();
    b->ZeroGrad();
    Backward(loss);
  };

  step();
  arena.Reset();
  const uint64_t misses_after_step1 = arena.workspace().misses();
  EXPECT_GT(misses_after_step1, 0u);

  step();
  arena.Reset();
  // Every scratch request in step 2 is served from the pool.
  EXPECT_EQ(arena.workspace().misses(), misses_after_step1);
  EXPECT_GT(arena.workspace().hits(), 0u);
}

TEST(TapeArenaTest, SteadyStateStepsMakeZeroMatrixAllocations) {
  Rng rng(5);
  Tensor table = Param(la::Matrix::Gaussian(10, 8, 0.1f, &rng));
  const std::vector<uint32_t> iu = {0, 1, 2, 3};
  const std::vector<uint32_t> ip = {4, 5, 6, 7};
  const std::vector<uint32_t> in = {2, 3, 4, 5};
  TapeArena arena;
  auto step = [&] {
    TapeArena::Scope scope(&arena);
    Tensor u = Gather(table, iu);
    Tensor p = Gather(table, ip);
    Tensor n = Gather(table, in);
    Tensor loss = FusedL2Penalty(RowDotSigmoidBpr(u, p, n), {u, p, n}, 0.01f);
    table->ZeroGrad();
    Backward(loss);
  };

  step();
  arena.Reset();
  step();
  arena.Reset();
  const la::AllocStats before = la::MatrixAllocStats();
  const uint64_t heap_before = HeapNodesAllocated();
  step();
  arena.Reset();
  step();
  arena.Reset();
  const la::AllocStats after = la::MatrixAllocStats();
  EXPECT_EQ(after.count, before.count);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(HeapNodesAllocated(), heap_before);
}

// ---------------------------------------------------------------------------
// Grad lifetime
// ---------------------------------------------------------------------------

TEST(GradLifetimeTest, ZeroGradEndsLiveRangeAndZeroesData) {
  Tensor p = Param(la::Matrix(2, 2, 1.0f));
  Tensor loss = Mean(Mul(p, p));
  Backward(loss);
  EXPECT_TRUE(p->grad_live());
  EXPECT_NE(p->grad(0, 0), 0.0f);
  p->ZeroGrad();
  EXPECT_FALSE(p->grad_live());
  // Historical contract: the data is zeroed, not just the flag cleared.
  EXPECT_EQ(p->grad(0, 0), 0.0f);
}

TEST(GradLifetimeTest, RecycledNodeGradsAreReZeroedEachStep) {
  Tensor p = Param(la::Matrix(2, 2, 1.0f));
  TapeArena arena;
  auto run = [&] {
    TapeArena::Scope scope(&arena);
    Tensor loss = Mean(Add(p, p));
    p->ZeroGrad();
    Backward(loss);
    return p->grad(0, 0);
  };
  const float g1 = run();
  arena.Reset();
  // The recycled intermediate node's grad buffer still holds step-1
  // values; EnsureGrad must re-zero it, so the result cannot double.
  const float g2 = run();
  arena.Reset();
  EXPECT_EQ(g1, g2);
}

TEST(GradLifetimeTest, OptimizerSkipsParamsUntouchedThisStep) {
  Tensor a = Param(la::Matrix(1, 1, 1.0f));
  Tensor b = Param(la::Matrix(1, 1, 1.0f));
  Adam opt({a, b}, {.learning_rate = 0.5f});
  {
    Tensor loss = Mean(Mul(a, b));
    opt.ZeroGrad();
    Backward(loss);
    opt.Step();
  }
  const float b_after_step1 = b->value(0, 0);
  {
    // Step 2 never touches b: its grad must not be live and Adam must
    // leave its value alone.
    Tensor loss = Mean(Mul(a, a));
    opt.ZeroGrad();
    Backward(loss);
    EXPECT_TRUE(a->grad_live());
    EXPECT_FALSE(b->grad_live());
    opt.Step();
  }
  EXPECT_EQ(b->value(0, 0), b_after_step1);
}

// ---------------------------------------------------------------------------
// Fused ops: bitwise match vs the unfused compositions + gradcheck
// ---------------------------------------------------------------------------

TEST(FusedOpsTest, GatherAddMatchesUnfusedBitwise) {
  Rng rng(6);
  Tensor t = RandomParam(6, 4, &rng);
  Tensor t_ref = Clone(t);
  // Duplicate indices exercise scatter accumulation; shared table
  // exercises the two-scatters-into-one-grad path.
  const std::vector<uint32_t> ia = {0, 2, 2, 5};
  const std::vector<uint32_t> ib = {1, 2, 4, 4};

  Tensor fused = Mean(GatherAdd(t, ia, t, ib));
  Tensor unfused = Mean(Add(Gather(t_ref, ia), Gather(t_ref, ib)));
  EXPECT_EQ(fused->value(0, 0), unfused->value(0, 0));

  t->ZeroGrad();
  t_ref->ZeroGrad();
  Backward(fused);
  Backward(unfused);
  ExpectBitwiseEqual(t->grad, t_ref->grad, "GatherAdd table grad");
}

TEST(FusedOpsTest, GatherAddGradCheck) {
  Rng rng(7);
  const std::vector<uint32_t> ia = {0, 2, 2, 3};
  const std::vector<uint32_t> ib = {1, 0, 3, 3};
  GradCheck({RandomParam(4, 3, &rng), RandomParam(4, 3, &rng)},
            [&](const std::vector<Tensor>& p) {
              return Mean(GatherAdd(p[0], ia, p[1], ib));
            });
}

TEST(FusedOpsTest, RowDotSigmoidBprMatchesUnfusedBitwise) {
  Rng rng(8);
  Tensor u = RandomParam(5, 4, &rng);
  Tensor p = RandomParam(5, 4, &rng);
  Tensor n = RandomParam(5, 4, &rng);
  Tensor u_ref = Clone(u), p_ref = Clone(p), n_ref = Clone(n);

  Tensor fused = RowDotSigmoidBpr(u, p, n);
  Tensor unfused = BprLoss(RowDot(u_ref, p_ref), RowDot(u_ref, n_ref));
  EXPECT_EQ(fused->value(0, 0), unfused->value(0, 0));

  u->ZeroGrad();
  p->ZeroGrad();
  n->ZeroGrad();
  u_ref->ZeroGrad();
  p_ref->ZeroGrad();
  n_ref->ZeroGrad();
  Backward(fused);
  Backward(unfused);
  ExpectBitwiseEqual(u->grad, u_ref->grad, "RowDotSigmoidBpr u grad");
  ExpectBitwiseEqual(p->grad, p_ref->grad, "RowDotSigmoidBpr pos grad");
  ExpectBitwiseEqual(n->grad, n_ref->grad, "RowDotSigmoidBpr neg grad");
}

TEST(FusedOpsTest, RowDotSigmoidBprGradCheck) {
  Rng rng(9);
  GradCheck({RandomParam(6, 3, &rng), RandomParam(6, 3, &rng),
             RandomParam(6, 3, &rng)},
            [](const std::vector<Tensor>& p) {
              return RowDotSigmoidBpr(p[0], p[1], p[2]);
            });
}

TEST(FusedOpsTest, FusedL2PenaltyMatchesUnfusedBitwise) {
  Rng rng(10);
  const float factor = 0.25f;
  Tensor a = RandomParam(3, 3, &rng);
  Tensor b = RandomParam(4, 2, &rng);
  Tensor c = RandomParam(2, 5, &rng);
  Tensor a_ref = Clone(a), b_ref = Clone(b), c_ref = Clone(c);

  Tensor fused = FusedL2Penalty(SumAll(Mul(a, a)), {b, c}, factor);
  Tensor unfused = AddScalars(
      {SumAll(Mul(a_ref, a_ref)),
       Scale(AddScalars({SquaredNorm(b_ref), SquaredNorm(c_ref)}), factor)});
  EXPECT_EQ(fused->value(0, 0), unfused->value(0, 0));

  for (const Tensor& t : {a, b, c, a_ref, b_ref, c_ref}) t->ZeroGrad();
  Backward(fused);
  Backward(unfused);
  ExpectBitwiseEqual(a->grad, a_ref->grad, "FusedL2Penalty base-path grad");
  ExpectBitwiseEqual(b->grad, b_ref->grad, "FusedL2Penalty term-1 grad");
  ExpectBitwiseEqual(c->grad, c_ref->grad, "FusedL2Penalty term-2 grad");
}

TEST(FusedOpsTest, FusedL2PenaltySingleTermMatchesUnfusedBitwise) {
  Rng rng(11);
  const float factor = 0.1f;
  Tensor a = RandomParam(3, 3, &rng);
  Tensor b = RandomParam(4, 2, &rng);
  Tensor a_ref = Clone(a), b_ref = Clone(b);

  // The trainer's old single-term special case skipped the inner
  // AddScalars; the fused op must match that composition too.
  Tensor fused = FusedL2Penalty(SumAll(Mul(a, a)), {b}, factor);
  Tensor unfused = AddScalars(
      {SumAll(Mul(a_ref, a_ref)), Scale(SquaredNorm(b_ref), factor)});
  EXPECT_EQ(fused->value(0, 0), unfused->value(0, 0));

  for (const Tensor& t : {a, b, a_ref, b_ref}) t->ZeroGrad();
  Backward(fused);
  Backward(unfused);
  ExpectBitwiseEqual(a->grad, a_ref->grad, "single-term base-path grad");
  ExpectBitwiseEqual(b->grad, b_ref->grad, "single-term term grad");
}

TEST(FusedOpsTest, FusedL2PenaltyGradCheck) {
  Rng rng(12);
  GradCheck({RandomParam(3, 3, &rng), RandomParam(4, 2, &rng),
             RandomParam(2, 5, &rng)},
            [](const std::vector<Tensor>& p) {
              return FusedL2Penalty(SumAll(Mul(p[0], p[0])), {p[1], p[2]},
                                    0.3f);
            });
}

// ---------------------------------------------------------------------------
// End-to-end training parity and the steady-state allocation budget
// ---------------------------------------------------------------------------

data::Dataset SmallDataset() {
  data::SyntheticConfig config =
      data::SyntheticConfig::YelpLike().Scaled(0.04);
  config.num_interactions = 2000;
  config.seed = 123;
  data::Dataset dataset = data::GenerateSynthetic(config);
  EXPECT_TRUE(
      data::QuantizeDataset(&dataset, 10, data::QuantizationScheme::kUniform)
          .ok());
  return dataset;
}

core::PupConfig SmallPupConfig() {
  core::PupConfig config = core::PupConfig::Full();
  config.embedding_dim = 16;
  config.category_branch_dim = 4;
  config.train.epochs = 3;
  config.train.batch_size = 256;
  config.train.seed = 42;
  return config;
}

TEST(AllocationBudgetTest, ArenaCutsSteadyStateAllocsByAtLeast90Percent) {
  const data::Dataset dataset = SmallDataset();
  // Matrix allocations made by a whole Fit. The difference between a
  // 3-epoch and a 1-epoch run isolates the steady-state epochs: one-time
  // costs (dataset prep, first-step warmup, scorer build) cancel.
  auto fit_allocs = [&](int epochs) {
    core::PupConfig config = SmallPupConfig();
    config.train.epochs = epochs;
    core::Pup model(config);
    const uint64_t before = la::MatrixAllocStats().count;
    model.Fit(dataset, dataset.interactions);
    return la::MatrixAllocStats().count - before;
  };
  // 16 is what the arena trainer makes at every --threads: the
  // epoch-boundary Trim re-primes the workspace once per epoch. A
  // heap-allocated tape made 2128 here, so this is a >99% cut.
  const uint64_t steady_state = fit_allocs(3) - fit_allocs(1);
  EXPECT_LE(steady_state, 16u);
}

}  // namespace
}  // namespace pup::ag
