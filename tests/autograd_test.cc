// Tests for the autograd engine: every op is verified against numerical
// (central-difference) gradients, plus optimizer convergence tests.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "autograd/tensor.h"
#include "common/rng.h"
#include "la/kernels.h"

namespace pup::ag {
namespace {

using BuildFn = std::function<Tensor(const std::vector<Tensor>&)>;

// Central-difference gradient check: builds the scalar loss twice per
// perturbed entry and compares with the analytic gradient from Backward.
void GradCheck(const std::vector<Tensor>& params, const BuildFn& build,
               float h = 1e-2f, float tol = 2e-2f) {
  Tensor loss = build(params);
  ASSERT_EQ(loss->value.rows(), 1u);
  ASSERT_EQ(loss->value.cols(), 1u);
  ZeroGradients(loss);
  Backward(loss);

  for (size_t p = 0; p < params.size(); ++p) {
    ASSERT_TRUE(params[p]->grad.SameShape(params[p]->value))
        << "param " << p << " received no gradient";
    for (size_t i = 0; i < params[p]->value.size(); ++i) {
      float original = params[p]->value.FlatAt(i);
      params[p]->value.FlatAt(i) = original + h;
      float up = build(params)->value(0, 0);
      params[p]->value.FlatAt(i) = original - h;
      float down = build(params)->value(0, 0);
      params[p]->value.FlatAt(i) = original;
      float numeric = (up - down) / (2.0f * h);
      float analytic = params[p]->grad.FlatAt(i);
      EXPECT_NEAR(analytic, numeric,
                  tol * std::max(1.0f, std::abs(numeric)))
          << "param " << p << " entry " << i;
    }
  }
}

Tensor RandomParam(size_t r, size_t c, Rng* rng) {
  return Param(la::Matrix::Uniform(r, c, -0.9f, 0.9f, rng));
}

// ------------------------------ Mechanics ------------------------------

TEST(TensorTest, ParamAndConstantFlags) {
  Tensor p = Param(la::Matrix(2, 2, 1.0f));
  Tensor c = Constant(la::Matrix(2, 2, 1.0f));
  EXPECT_TRUE(p->requires_grad);
  EXPECT_FALSE(c->requires_grad);
}

TEST(TensorTest, RequiresGradPropagates) {
  Tensor p = Param(la::Matrix(2, 2, 1.0f));
  Tensor c = Constant(la::Matrix(2, 2, 2.0f));
  EXPECT_TRUE(Add(p, c)->requires_grad);
  EXPECT_FALSE(Add(c, c)->requires_grad);
}

TEST(TensorTest, ConstantSubgraphGetsNoGrad) {
  Tensor c = Constant(la::Matrix(2, 2, 2.0f));
  Tensor p = Param(la::Matrix(2, 2, 1.0f));
  Tensor loss = Mean(Mul(p, c));
  Backward(loss);
  EXPECT_TRUE(p->grad.SameShape(p->value));
  EXPECT_FALSE(c->grad.SameShape(c->value));  // Never allocated.
}

TEST(TensorTest, GradientsAccumulateAcrossBackwards) {
  Tensor p = Param(la::Matrix(1, 1, 3.0f));
  Tensor loss = Mean(Mul(p, p));  // d/dp = 2p = 6.
  Backward(loss);
  EXPECT_NEAR(p->grad(0, 0), 6.0f, 1e-5f);
  Tensor loss2 = Mean(Mul(p, p));
  Backward(loss2);
  EXPECT_NEAR(p->grad(0, 0), 12.0f, 1e-5f);
  p->ZeroGrad();
  EXPECT_EQ(p->grad(0, 0), 0.0f);
}

TEST(TensorTest, DiamondGraphAccumulates) {
  // loss = mean(x + x): gradient must be 2, not 1.
  Tensor x = Param(la::Matrix(2, 2, 1.0f));
  Tensor loss = Mean(Add(x, x));
  Backward(loss);
  EXPECT_NEAR(x->grad(0, 0), 2.0f / 4.0f, 1e-6f);
}

TEST(TensorTest, TopologicalOrderHandlesSharedNodes) {
  Tensor x = Param(la::Matrix(1, 1, 2.0f));
  Tensor y = Mul(x, x);      // x².
  Tensor z = Mul(y, y);      // x⁴; shares y twice.
  Tensor loss = Mean(z);
  Backward(loss);
  EXPECT_NEAR(x->grad(0, 0), 4.0f * 8.0f, 1e-4f);  // 4x³ = 32.
}

// --------------------------- Gradient checks ---------------------------

TEST(GradCheckTest, AddSubMul) {
  Rng rng(1);
  auto a = RandomParam(3, 4, &rng);
  auto b = RandomParam(3, 4, &rng);
  GradCheck({a, b}, [](const std::vector<Tensor>& p) {
    return Mean(Mul(Add(p[0], p[1]), Sub(p[0], p[1])));
  });
}

TEST(GradCheckTest, Scale) {
  Rng rng(2);
  auto a = RandomParam(2, 3, &rng);
  GradCheck({a}, [](const std::vector<Tensor>& p) {
    return SumAll(Scale(p[0], -2.5f));
  });
}

TEST(GradCheckTest, MatMul) {
  Rng rng(3);
  auto a = RandomParam(3, 4, &rng);
  auto b = RandomParam(4, 2, &rng);
  GradCheck({a, b}, [](const std::vector<Tensor>& p) {
    return Mean(MatMul(p[0], p[1]));
  });
}

TEST(GradCheckTest, MatMulChain) {
  Rng rng(4);
  auto a = RandomParam(2, 3, &rng);
  auto b = RandomParam(3, 3, &rng);
  auto c = RandomParam(3, 2, &rng);
  GradCheck({a, b, c}, [](const std::vector<Tensor>& p) {
    return Mean(MatMul(MatMul(p[0], p[1]), p[2]));
  });
}

TEST(GradCheckTest, Tanh) {
  Rng rng(5);
  auto a = RandomParam(3, 3, &rng);
  GradCheck({a}, [](const std::vector<Tensor>& p) {
    return Mean(Tanh(p[0]));
  });
}

TEST(GradCheckTest, Sigmoid) {
  Rng rng(6);
  auto a = RandomParam(3, 3, &rng);
  GradCheck({a}, [](const std::vector<Tensor>& p) {
    return Mean(Sigmoid(p[0]));
  });
}

TEST(GradCheckTest, LeakyRelu) {
  Rng rng(7);
  // Keep values away from the kink at 0 for a clean numeric estimate.
  auto a = Param(la::Matrix(2, 3, {0.5f, -0.7f, 1.2f, -0.3f, 0.9f, -1.1f}));
  GradCheck({a}, [](const std::vector<Tensor>& p) {
    return Mean(LeakyRelu(p[0], 0.2f));
  });
}

TEST(GradCheckTest, RowDot) {
  Rng rng(8);
  auto a = RandomParam(4, 3, &rng);
  auto b = RandomParam(4, 3, &rng);
  GradCheck({a, b}, [](const std::vector<Tensor>& p) {
    return Mean(RowDot(p[0], p[1]));
  });
}

TEST(GradCheckTest, RowSum) {
  Rng rng(9);
  auto a = RandomParam(3, 5, &rng);
  GradCheck({a}, [](const std::vector<Tensor>& p) {
    return Mean(Tanh(RowSum(p[0])));
  });
}

TEST(GradCheckTest, Gather) {
  Rng rng(10);
  auto table = RandomParam(5, 3, &rng);
  std::vector<uint32_t> idx = {4, 0, 0, 2};  // Duplicates must accumulate.
  GradCheck({table}, [&idx](const std::vector<Tensor>& p) {
    return Mean(Tanh(Gather(p[0], idx)));
  });
}

TEST(GradCheckTest, Spmm) {
  Rng rng(11);
  la::CsrMatrix adj = la::CsrMatrix::FromTriplets(
      4, 5,
      {{0, 0, 0.5f}, {0, 3, 0.5f}, {1, 1, 1.0f}, {2, 2, 0.3f},
       {2, 4, 0.7f}, {3, 0, 0.2f}});
  la::CsrMatrix adj_t = adj.Transposed();
  auto x = RandomParam(5, 3, &rng);
  GradCheck({x}, [&adj, &adj_t](const std::vector<Tensor>& p) {
    return Mean(Tanh(Spmm(&adj, &adj_t, p[0])));
  });
}

TEST(GradCheckTest, ConcatCols) {
  Rng rng(12);
  auto a = RandomParam(3, 2, &rng);
  auto b = RandomParam(3, 4, &rng);
  GradCheck({a, b}, [](const std::vector<Tensor>& p) {
    return Mean(Tanh(ConcatCols({p[0], p[1]})));
  });
}

TEST(GradCheckTest, ConcatRows) {
  Rng rng(13);
  auto a = RandomParam(2, 3, &rng);
  auto b = RandomParam(4, 3, &rng);
  GradCheck({a, b}, [](const std::vector<Tensor>& p) {
    return Mean(Tanh(ConcatRows({p[0], p[1]})));
  });
}

TEST(GradCheckTest, AddBroadcastRow) {
  Rng rng(14);
  auto x = RandomParam(4, 3, &rng);
  auto bias = RandomParam(1, 3, &rng);
  GradCheck({x, bias}, [](const std::vector<Tensor>& p) {
    return Mean(Tanh(AddBroadcastRow(p[0], p[1])));
  });
}

TEST(GradCheckTest, SquaredNorm) {
  Rng rng(15);
  auto a = RandomParam(3, 3, &rng);
  GradCheck({a}, [](const std::vector<Tensor>& p) {
    return SquaredNorm(p[0]);
  });
}

TEST(GradCheckTest, AddScalars) {
  Rng rng(16);
  auto a = RandomParam(2, 2, &rng);
  auto b = RandomParam(3, 1, &rng);
  GradCheck({a, b}, [](const std::vector<Tensor>& p) {
    return AddScalars({Mean(p[0]), SumAll(p[1]), SquaredNorm(p[0])});
  });
}

TEST(GradCheckTest, BprLoss) {
  Rng rng(17);
  auto pos = RandomParam(6, 1, &rng);
  auto neg = RandomParam(6, 1, &rng);
  GradCheck({pos, neg}, [](const std::vector<Tensor>& p) {
    return BprLoss(p[0], p[1]);
  });
}

TEST(GradCheckTest, MseLoss) {
  Rng rng(18);
  auto pred = RandomParam(4, 1, &rng);
  la::Matrix target(4, 1, {0.2f, -0.4f, 0.8f, 0.1f});
  GradCheck({pred}, [&target](const std::vector<Tensor>& p) {
    return MseLoss(p[0], target);
  });
}

TEST(GradCheckTest, FmDecoderComposition) {
  // The eq. (7) pairwise-interaction decoder as used by the FM model.
  Rng rng(19);
  auto eu = RandomParam(5, 4, &rng);
  auto ei = RandomParam(5, 4, &rng);
  auto ec = RandomParam(5, 4, &rng);
  GradCheck({eu, ei, ec}, [](const std::vector<Tensor>& p) {
    Tensor sum = Add(Add(p[0], p[1]), p[2]);
    Tensor s1 = RowDot(sum, sum);
    Tensor s2 = Add(Add(RowDot(p[0], p[0]), RowDot(p[1], p[1])),
                    RowDot(p[2], p[2]));
    return Mean(Scale(Sub(s1, s2), 0.5f));
  });
}

TEST(GradCheckTest, GcnEncoderComposition) {
  // tanh(Â E) followed by gathered row-dots: the PUP encoder + decoder.
  Rng rng(20);
  la::CsrMatrix adj = la::CsrMatrix::FromTriplets(
      6, 6,
      {{0, 0, 0.5f}, {0, 1, 0.5f}, {1, 0, 0.3f}, {1, 1, 0.4f},
       {1, 2, 0.3f}, {2, 2, 1.0f}, {3, 3, 0.6f}, {3, 4, 0.4f},
       {4, 4, 1.0f}, {5, 5, 1.0f}});
  la::CsrMatrix adj_t = adj.Transposed();
  auto emb = RandomParam(6, 3, &rng);
  std::vector<uint32_t> users = {0, 1};
  std::vector<uint32_t> items = {3, 4};
  GradCheck({emb}, [&](const std::vector<Tensor>& p) {
    Tensor f = Tanh(Spmm(&adj, &adj_t, p[0]));
    return Mean(RowDot(Gather(f, users), Gather(f, items)));
  });
}

// ------------------------------- Dropout -------------------------------

TEST(DropoutTest, IdentityWhenNotTraining) {
  Rng rng(21);
  Tensor x = Param(la::Matrix(3, 3, 2.0f));
  Tensor y = Dropout(x, 0.5f, &rng, /*training=*/false);
  EXPECT_EQ(y.get(), x.get());  // Pass-through, no new node.
}

TEST(DropoutTest, IdentityWhenPZero) {
  Rng rng(22);
  Tensor x = Param(la::Matrix(3, 3, 2.0f));
  Tensor y = Dropout(x, 0.0f, &rng, /*training=*/true);
  EXPECT_EQ(y.get(), x.get());
}

TEST(DropoutTest, InvertedScalingPreservesExpectation) {
  Rng rng(23);
  Tensor x = Param(la::Matrix(100, 100, 1.0f));
  Tensor y = Dropout(x, 0.3f, &rng, /*training=*/true);
  double mean = la::Sum(y->value) / y->value.size();
  EXPECT_NEAR(mean, 1.0, 0.05);
  // Surviving entries are scaled by 1/(1-p).
  for (size_t i = 0; i < y->value.size(); ++i) {
    float v = y->value.FlatAt(i);
    EXPECT_TRUE(v == 0.0f || std::abs(v - 1.0f / 0.7f) < 1e-5f);
  }
}

TEST(DropoutTest, GradientMatchesMask) {
  Rng rng(24);
  Tensor x = Param(la::Matrix(10, 10, 1.0f));
  Tensor y = Dropout(x, 0.5f, &rng, /*training=*/true);
  Tensor loss = SumAll(y);
  Backward(loss);
  for (size_t i = 0; i < x->value.size(); ++i) {
    float out = y->value.FlatAt(i);
    float g = x->grad.FlatAt(i);
    if (out == 0.0f) {
      EXPECT_EQ(g, 0.0f);
    } else {
      EXPECT_NEAR(g, 2.0f, 1e-5f);  // 1/(1-0.5).
    }
  }
}

// ------------------------------ Optimizers -----------------------------

TEST(AdamTest, MinimizesQuadratic) {
  Tensor x = Param(la::Matrix(2, 2, 3.0f));
  Adam opt({x}, {.learning_rate = 0.1f});
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    Tensor loss = SquaredNorm(x);
    Backward(loss);
    opt.Step();
  }
  EXPECT_NEAR(la::MaxAbs(x->value), 0.0f, 1e-3f);
}

TEST(AdamTest, MinimizesRosenbrockish) {
  // f(a, b) = (1 - a)² + 10 (b - a²)²: a narrow curved valley.
  Tensor a = Param(la::Matrix(1, 1, -1.0f));
  Tensor b = Param(la::Matrix(1, 1, 1.0f));
  Adam opt({a, b}, {.learning_rate = 0.02f});
  for (int i = 0; i < 3000; ++i) {
    opt.ZeroGrad();
    Tensor one = Constant(la::Matrix(1, 1, 1.0f));
    Tensor t1 = Sub(one, a);
    Tensor t2 = Sub(b, Mul(a, a));
    Tensor loss = AddScalars(
        {SumAll(Mul(t1, t1)), Scale(SumAll(Mul(t2, t2)), 10.0f)});
    Backward(loss);
    opt.Step();
  }
  EXPECT_NEAR(a->value(0, 0), 1.0f, 0.05f);
  EXPECT_NEAR(b->value(0, 0), 1.0f, 0.1f);
}

TEST(AdamTest, LearningRateDecaySticks) {
  Tensor x = Param(la::Matrix(1, 1, 1.0f));
  Adam opt({x}, {.learning_rate = 0.1f});
  EXPECT_FLOAT_EQ(opt.learning_rate(), 0.1f);
  opt.SetLearningRate(0.01f);
  EXPECT_FLOAT_EQ(opt.learning_rate(), 0.01f);
}

TEST(OptimizerTest, SkipsParamsWithoutGradients) {
  Tensor used = Param(la::Matrix(1, 1, 2.0f));
  Tensor unused = Param(la::Matrix(1, 1, 7.0f));
  Adam opt({used, unused}, {.learning_rate = 0.1f});
  opt.ZeroGrad();
  Tensor loss = SquaredNorm(used);
  Backward(loss);
  opt.Step();
  EXPECT_NE(used->value(0, 0), 2.0f);
  EXPECT_EQ(unused->value(0, 0), 7.0f);
}

}  // namespace
}  // namespace pup::ag
