// Tests for the BPR training loop.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "la/kernels.h"
#include "obs/registry.h"
#include "tiny_mf.h"
#include "train/early_stopping.h"
#include "train/trainer.h"

namespace pup::train {
namespace {


data::Dataset SmallDataset() {
  data::SyntheticConfig config = data::SyntheticConfig::YelpLike().Scaled(0.04);
  config.num_interactions = 2000;
  return data::GenerateSynthetic(config);
}

TEST(TrainerTest, LossDecreases) {
  data::Dataset ds = SmallDataset();
  TinyMf model(ds.num_users, ds.num_items, 16, 1);
  TrainOptions options;
  options.epochs = 8;
  options.batch_size = 256;
  auto history = TrainBpr(&model, ds, ds.interactions, options);
  ASSERT_EQ(history.size(), 8u);
  // Starts near ln(2) ≈ 0.693 and must drop clearly.
  EXPECT_NEAR(history.front().mean_loss, 0.693, 0.05);
  EXPECT_LT(history.back().mean_loss, history.front().mean_loss * 0.9);
}

TEST(TrainerTest, EpochStatsNumbered) {
  data::Dataset ds = SmallDataset();
  TinyMf model(ds.num_users, ds.num_items, 8, 2);
  TrainOptions options;
  options.epochs = 3;
  auto history = TrainBpr(&model, ds, ds.interactions, options);
  for (int e = 0; e < 3; ++e) EXPECT_EQ(history[e].epoch, e);
}

TEST(TrainerTest, CallbackCanStopEarly) {
  data::Dataset ds = SmallDataset();
  TinyMf model(ds.num_users, ds.num_items, 8, 3);
  TrainOptions options;
  options.epochs = 50;
  int calls = 0;
  auto history =
      TrainBpr(&model, ds, ds.interactions, options,
               [&calls](const EpochStats&) { return ++calls < 3; });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(history.size(), 3u);
}

TEST(TrainerTest, DeterministicGivenSeed) {
  data::Dataset ds = SmallDataset();
  TrainOptions options;
  options.epochs = 2;
  options.seed = 99;
  TinyMf a(ds.num_users, ds.num_items, 8, 5);
  TinyMf b(ds.num_users, ds.num_items, 8, 5);
  auto ha = TrainBpr(&a, ds, ds.interactions, options);
  auto hb = TrainBpr(&b, ds, ds.interactions, options);
  EXPECT_DOUBLE_EQ(ha.back().mean_loss, hb.back().mean_loss);
  for (size_t i = 0; i < a.users_->value.size(); ++i) {
    EXPECT_EQ(a.users_->value.FlatAt(i), b.users_->value.FlatAt(i));
  }
}

TEST(TrainerTest, L2RegularizationShrinksEmbeddings) {
  data::Dataset ds = SmallDataset();
  TrainOptions options;
  options.epochs = 5;
  options.l2_reg = 0.0f;
  TinyMf free(ds.num_users, ds.num_items, 8, 6);
  TrainBpr(&free, ds, ds.interactions, options);
  options.l2_reg = 1.0f;  // Heavy penalty.
  TinyMf reg(ds.num_users, ds.num_items, 8, 6);
  TrainBpr(&reg, ds, ds.interactions, options);
  EXPECT_LT(la::SquaredNorm(reg.users_->value),
            la::SquaredNorm(free.users_->value));
}

// Observable lr schedule: with the default {0.5, 0.75} fractions on 10
// epochs the rate drops by 10x entering epochs 5 and 7, and EpochStats
// reports the rate each epoch actually ran at.
TEST(TrainerTest, EpochStatsReportLearningRateSchedule) {
  data::Dataset ds = SmallDataset();
  TinyMf model(ds.num_users, ds.num_items, 8, 11);
  TrainOptions options;
  options.epochs = 10;
  auto history = TrainBpr(&model, ds, ds.interactions, options);
  ASSERT_EQ(history.size(), 10u);
  const float lr0 = options.learning_rate;
  for (int e = 0; e < 5; ++e) EXPECT_EQ(history[e].lr, lr0) << "epoch " << e;
  for (int e = 5; e < 7; ++e) {
    EXPECT_EQ(history[e].lr, lr0 * 0.1f) << "epoch " << e;
  }
  for (int e = 7; e < 10; ++e) {
    EXPECT_EQ(history[e].lr, lr0 * 0.1f * 0.1f) << "epoch " << e;
  }
}

// Two decay fractions can floor to the same epoch on short runs —
// {0.5, 0.55} of 10 epochs both land on epoch 5. The rate must be
// divided by 10 once there, not once per fraction: the trajectory has to
// match a run configured with the single fraction {0.5}.
TEST(TrainerTest, DuplicateDecayFractionsDecayOnce) {
  data::Dataset ds = SmallDataset();
  TrainOptions options;
  options.epochs = 10;
  options.lr_decay_at = {0.5, 0.55};  // floor(5.0) == floor(5.5) == 5.

  TinyMf dup(ds.num_users, ds.num_items, 8, 12);
  auto h_dup = TrainBpr(&dup, ds, ds.interactions, options);
  ASSERT_EQ(h_dup.size(), 10u);
  const float lr0 = options.learning_rate;
  // One decay, not two: epoch 5 runs at lr0/10, never lr0/100.
  EXPECT_EQ(h_dup[4].lr, lr0);
  for (int e = 5; e < 10; ++e) {
    EXPECT_EQ(h_dup[e].lr, lr0 * 0.1f) << "epoch " << e;
  }

  // And the whole trajectory matches the de-duplicated schedule.
  options.lr_decay_at = {0.5};
  TinyMf single(ds.num_users, ds.num_items, 8, 12);
  auto h_single = TrainBpr(&single, ds, ds.interactions, options);
  for (int e = 0; e < 10; ++e) {
    EXPECT_EQ(h_dup[e].mean_loss, h_single[e].mean_loss) << "epoch " << e;
  }
  for (size_t i = 0; i < dup.users_->value.size(); ++i) {
    ASSERT_EQ(dup.users_->value.FlatAt(i), single.users_->value.FlatAt(i));
  }
}

TEST(TrainerTest, NegativeRateScalesWork) {
  data::Dataset ds = SmallDataset();
  TinyMf model(ds.num_users, ds.num_items, 8, 7);
  TrainOptions options;
  options.epochs = 1;
  options.negative_rate = 2;
  auto history = TrainBpr(&model, ds, ds.interactions, options);
  EXPECT_EQ(history.size(), 1u);
}

// ---------------------------- Early stopping ---------------------------

TEST(EarlyStopperTest, StopsAfterPatienceExhausted) {
  data::Dataset ds = SmallDataset();
  TinyMf model(ds.num_users, ds.num_items, 8, 11);
  // A metric that never improves after the first evaluation.
  int calls = 0;
  EarlyStopper stopper(model.Parameters(),
                       [&calls] { return calls++ == 0 ? 1.0 : 0.5; },
                       {.eval_every = 1, .patience = 3});
  TrainOptions options;
  options.epochs = 50;
  auto history =
      TrainBpr(&model, ds, ds.interactions, options, stopper.MakeCallback());
  // 1 improving eval + 3 non-improving evals → stop after epoch 3.
  EXPECT_EQ(history.size(), 4u);
  EXPECT_EQ(stopper.best_epoch(), 0);
  EXPECT_DOUBLE_EQ(stopper.best_metric(), 1.0);
}

TEST(EarlyStopperTest, RestoreBestRecoversSnapshot) {
  data::Dataset ds = SmallDataset();
  TinyMf model(ds.num_users, ds.num_items, 8, 12);
  // Improve once at the first eval, then never again; training keeps
  // changing parameters, RestoreBest must bring back the epoch-0 state.
  int calls = 0;
  EarlyStopper stopper(model.Parameters(),
                       [&calls] { return calls++ == 0 ? 1.0 : 0.0; },
                       {.eval_every = 1, .patience = 2});
  TrainOptions options;
  options.epochs = 10;
  TrainBpr(&model, ds, ds.interactions, options, stopper.MakeCallback());
  la::Matrix after_training = model.users_->value;
  stopper.RestoreBest();
  // The restored parameters differ from the final trained state.
  bool differs = false;
  for (size_t i = 0; i < after_training.size(); ++i) {
    if (after_training.FlatAt(i) != model.users_->value.FlatAt(i)) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(EarlyStopperTest, EvalEveryControlsCadence) {
  data::Dataset ds = SmallDataset();
  TinyMf model(ds.num_users, ds.num_items, 8, 13);
  int calls = 0;
  EarlyStopper stopper(model.Parameters(),
                       [&calls] { return static_cast<double>(calls++); },
                       {.eval_every = 4, .patience = 10});
  TrainOptions options;
  options.epochs = 12;
  TrainBpr(&model, ds, ds.interactions, options, stopper.MakeCallback());
  EXPECT_EQ(stopper.num_evaluations(), 3);  // Epochs 3, 7, 11.
}

TEST(EarlyStopperTest, RestoreBestNoOpWithoutEvaluations) {
  data::Dataset ds = SmallDataset();
  TinyMf model(ds.num_users, ds.num_items, 8, 14);
  EarlyStopper stopper(model.Parameters(), [] { return 0.0; },
                       {.eval_every = 100, .patience = 1});
  la::Matrix before = model.users_->value;
  stopper.RestoreBest();  // No snapshot taken; must not crash or change.
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before.FlatAt(i), model.users_->value.FlatAt(i));
  }
}

// --------------------------- Checkpointing ----------------------------

Result<CheckpointOptions> CheckpointFlags(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return CheckpointOptionsFromFlags(
      Flags::Parse(static_cast<int>(argv.size()), argv.data()));
}

// A malformed --save-every must fail loudly: read leniently, "abc" would
// become 0 and "-2" stay negative, and either silently disables snapshots.
TEST(CheckpointFlagsTest, RejectsSaveEveryThatIsNotANonNegativeInteger) {
  for (const char* value : {"abc", "-2", "3x", "99999999999"}) {
    const std::string flag = std::string("--save-every=") + value;
    Result<CheckpointOptions> options =
        CheckpointFlags({"--ckpt-dir", "/tmp/run", flag.c_str()});
    ASSERT_FALSE(options.ok()) << value;
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(options.status().message().find(value), std::string::npos)
        << options.status().message();
  }
}

TEST(CheckpointFlagsTest, RejectsSaveEveryWithoutCheckpointDirectory) {
  Result<CheckpointOptions> options = CheckpointFlags({"--save-every", "2"});
  ASSERT_FALSE(options.ok());
  EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(options.status().message().find("--ckpt-dir"), std::string::npos);
}

TEST(CheckpointFlagsTest, AcceptsAValidSet) {
  Result<CheckpointOptions> options = CheckpointFlags(
      {"--ckpt-dir", "/tmp/run", "--save-every", "4", "--resume", "/tmp/old"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->directory, "/tmp/run");
  EXPECT_EQ(options->save_every, 4);
  EXPECT_EQ(options->resume_from, "/tmp/old");

  // No flags at all: snapshots off, nothing to resume.
  Result<CheckpointOptions> none = CheckpointFlags({});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->save_every, 0);
  EXPECT_TRUE(none->directory.empty());
}

// ------------------------- --max-neighbors flag -------------------------

Result<size_t> MaxNeighborsFlag(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return MaxNeighborsFromFlags(
      Flags::Parse(static_cast<int>(argv.size()), argv.data()));
}

// Read leniently, "abc" became 0 and silently trained the full graph.
TEST(MaxNeighborsFlagTest, RejectsANonInteger) {
  for (const char* value : {"abc", "3x", "2.5", "99999999999999999999"}) {
    const std::string flag = std::string("--max-neighbors=") + value;
    Result<size_t> cap = MaxNeighborsFlag({flag.c_str()});
    ASSERT_FALSE(cap.ok()) << value;
    EXPECT_EQ(cap.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(cap.status().message().find(value), std::string::npos)
        << cap.status().message();
  }
}

// Read leniently, "-3" was clamped to 0 and silently trained the full
// graph.
TEST(MaxNeighborsFlagTest, RejectsANegativeValue) {
  Result<size_t> cap = MaxNeighborsFlag({"--max-neighbors=-3"});
  ASSERT_FALSE(cap.ok());
  EXPECT_EQ(cap.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cap.status().message().find("--max-neighbors"), std::string::npos);
}

TEST(MaxNeighborsFlagTest, AcceptsAValidOrAbsentFlag) {
  Result<size_t> cap = MaxNeighborsFlag({"--max-neighbors", "8"});
  ASSERT_TRUE(cap.ok()) << cap.status().ToString();
  EXPECT_EQ(*cap, 8u);

  // Absent: no cap.
  Result<size_t> none = MaxNeighborsFlag({});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);
}

// A checkpoint directory that cannot be written (here: it is a regular
// file) fails every save; each failure is counted, and training runs to
// the end regardless.
TEST(TrainerTest, FailedCheckpointSavesAreCountedAndTrainingContinues) {
  data::Dataset ds = SmallDataset();
  const std::string not_a_dir = testing::TempDir() + "/pup_ckpt_not_a_dir";
  std::filesystem::remove_all(not_a_dir);
  std::ofstream(not_a_dir) << "a regular file";
  const obs::Counter* failed =
      obs::Registry::Global().GetCounter("train/checkpoint_save_failed");
  const uint64_t failed_before = failed->Get();

  TinyMf model(ds.num_users, ds.num_items, 8, 15);
  TrainOptions options;
  options.epochs = 5;
  options.checkpoint.directory = not_a_dir;
  options.checkpoint.save_every = 2;
  auto history = TrainBpr(&model, ds, ds.interactions, options);

  EXPECT_EQ(history.size(), 5u);
  // Saves are attempted after epochs 2, 4 and the final epoch 5.
  EXPECT_EQ(failed->Get() - failed_before, 3u);
  std::filesystem::remove(not_a_dir);
}

// A BprTrainable whose forward returns the batch the test set.
class FixedBatch : public BprTrainable {
 public:
  TrainableState State() override { return {}; }
  BatchGraph ForwardBatch(const std::vector<uint32_t>&,
                          const std::vector<uint32_t>&,
                          const std::vector<uint32_t>&, bool) override {
    return batch;
  }

  BatchGraph batch;
};

void ExpectBitwiseEqual(const la::Matrix& a, const la::Matrix& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a.FlatAt(k), b.FlatAt(k));
}

// The trainer picks the head from the batch's shape: the fused row-dot
// head for (user, pos, neg), BprLoss for (pos_scores, neg_scores), and
// nothing else.
TEST(TrainerTest, ForwardBatchLossAppliesTheHeadTheBatchSets) {
  Rng rng(41);
  const la::Matrix mu = la::Matrix::Gaussian(6, 5, 0.7f, &rng);
  const la::Matrix mp = la::Matrix::Gaussian(6, 5, 0.7f, &rng);
  const la::Matrix mn = la::Matrix::Gaussian(6, 5, 0.7f, &rng);

  ag::Tensor u = ag::Param(mu), p = ag::Param(mp), n = ag::Param(mn);
  FixedBatch model;
  model.batch.user = u;
  model.batch.pos = p;
  model.batch.neg = n;
  ag::Tensor fused = model.ForwardBatchLoss({}, {}, {}, true).loss;
  EXPECT_STREQ(fused->op_name, "row_dot_sigmoid_bpr");
  ag::Backward(fused);

  ag::Tensor ru = ag::Param(mu), rp = ag::Param(mp), rn = ag::Param(mn);
  ag::Tensor reference =
      ag::BprLoss(ag::RowDot(ru, rp), ag::RowDot(ru, rn));
  ag::Backward(reference);
  EXPECT_EQ(fused->value(0, 0), reference->value(0, 0));
  ExpectBitwiseEqual(u->grad, ru->grad);
  ExpectBitwiseEqual(p->grad, rp->grad);
  ExpectBitwiseEqual(n->grad, rn->grad);

  // Both shapes set.
  model.batch.pos_scores = ag::RowDot(ru, rp);
  model.batch.neg_scores = ag::RowDot(ru, rn);
  EXPECT_DEATH(model.ForwardBatchLoss({}, {}, {}, true), "exactly one");

  model.batch.user = model.batch.pos = model.batch.neg = nullptr;
  EXPECT_STREQ(model.ForwardBatchLoss({}, {}, {}, true).loss->op_name,
               "bpr_loss");

  model.batch = {};  // Neither shape set.
  EXPECT_DEATH(model.ForwardBatchLoss({}, {}, {}, true), "exactly one");
}

}  // namespace
}  // namespace pup::train
