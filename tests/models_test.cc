// Tests for the baseline recommenders: interface contracts, learning on a
// small synthetic dataset, and consistency between the training-time
// forward pass and the folded inference scorer.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "autograd/ops.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "models/bpr_mf.h"
#include "models/deep_fm.h"
#include "models/fm.h"
#include "models/gc_mc.h"
#include "models/item_pop.h"
#include "models/ngcf.h"
#include "models/padq.h"

namespace pup::models {
namespace {

data::Dataset SmallDataset(uint64_t seed = 11) {
  data::SyntheticConfig config =
      data::SyntheticConfig::YelpLike().Scaled(0.15);
  config.num_interactions = 8000;
  config.seed = seed;
  data::Dataset ds = data::GenerateSynthetic(config);
  EXPECT_TRUE(
      data::QuantizeDataset(&ds, 4, data::QuantizationScheme::kUniform).ok());
  return ds;
}

train::TrainOptions FastTrain(int epochs = 6) {
  train::TrainOptions t;
  t.epochs = epochs;
  t.batch_size = 512;
  return t;
}

// Evaluates leave-nothing-out training recall: can the model rank its own
// training items highly? A cheap sanity check that learning happened.
double TrainRecallAt(const Recommender& model, const data::Dataset& ds,
                     int k) {
  auto user_items = ds.UserItemLists();
  auto result = eval::EvaluateRanking(
      model, ds.num_users, ds.num_items,
      std::vector<std::vector<uint32_t>>(ds.num_users), user_items, {k});
  return result.At(k).recall;
}

// ------------------------------- ItemPop -------------------------------

TEST(ItemPopTest, RanksByPopularity) {
  data::Dataset ds;
  ds.num_users = 3;
  ds.num_items = 3;
  ds.num_categories = 1;
  ds.num_price_levels = 1;
  ds.item_category = {0, 0, 0};
  ds.item_price = {1, 1, 1};
  ds.item_price_level = {0, 0, 0};
  ds.interactions = {{0, 1, 0}, {1, 1, 1}, {2, 1, 2}, {0, 2, 3}, {1, 2, 4}};
  ItemPop model;
  model.Fit(ds, ds.interactions);
  std::vector<float> scores;
  model.ScoreItems(0, &scores);
  EXPECT_GT(scores[1], scores[2]);
  EXPECT_GT(scores[2], scores[0]);
  EXPECT_EQ(scores[0], 0.0f);
}

TEST(ItemPopTest, SameScoresForAllUsers) {
  data::Dataset ds = SmallDataset();
  ItemPop model;
  model.Fit(ds, ds.interactions);
  std::vector<float> s0, s1;
  model.ScoreItems(0, &s0);
  model.ScoreItems(1, &s1);
  EXPECT_EQ(s0, s1);
}

// ---------------------- Shared learning contract -----------------------

enum class Kind { kBprMf, kFm, kDeepFm, kPadq, kGcMc, kNgcf };

std::unique_ptr<Recommender> MakeModel(Kind kind, int epochs) {
  switch (kind) {
    case Kind::kBprMf: {
      BprMfConfig c;
      c.embedding_dim = 16;
      c.train = FastTrain(epochs);
      return std::make_unique<BprMf>(c);
    }
    case Kind::kFm: {
      FmConfig c;
      c.embedding_dim = 16;
      c.train = FastTrain(epochs);
      return std::make_unique<Fm>(c);
    }
    case Kind::kDeepFm: {
      DeepFmConfig c;
      c.embedding_dim = 16;
      c.hidden1 = 16;
      c.hidden2 = 8;
      c.train = FastTrain(epochs);
      return std::make_unique<DeepFm>(c);
    }
    case Kind::kPadq: {
      PadqConfig c;
      c.embedding_dim = 16;
      c.epochs = epochs;
      return std::make_unique<PaDQ>(c);
    }
    case Kind::kGcMc: {
      GcMcConfig c;
      c.embedding_dim = 16;
      c.dropout = 0.0f;
      c.train = FastTrain(epochs);
      return std::make_unique<GcMc>(c);
    }
    case Kind::kNgcf: {
      NgcfConfig c;
      c.embedding_dim = 16;
      c.dropout = 0.0f;
      c.train = FastTrain(epochs);
      return std::make_unique<Ngcf>(c);
    }
  }
  return nullptr;
}

class ModelContractTest : public ::testing::TestWithParam<Kind> {};

TEST_P(ModelContractTest, BeatsRandomOnTrainingData) {
  data::Dataset ds = SmallDataset();
  auto model = MakeModel(GetParam(), 6);
  model->Fit(ds, ds.interactions);
  double recall = TrainRecallAt(*model, ds, 20);
  // A random ranking achieves recall@20 ≈ 20 / num_items in expectation;
  // a trained model must clearly beat that on its own training data.
  double random_level =
      std::min(1.0, 20.0 / static_cast<double>(ds.num_items));
  EXPECT_GT(recall, 1.5 * random_level)
      << model->name() << " failed to learn (recall=" << recall
      << ", random=" << random_level << ")";
}

TEST_P(ModelContractTest, ScoresAreFiniteAndComplete) {
  data::Dataset ds = SmallDataset();
  auto model = MakeModel(GetParam(), 2);
  model->Fit(ds, ds.interactions);
  std::vector<float> scores;
  model->ScoreItems(3, &scores);
  ASSERT_EQ(scores.size(), ds.num_items);
  for (float s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST_P(ModelContractTest, DeterministicAcrossRuns) {
  data::Dataset ds = SmallDataset();
  auto a = MakeModel(GetParam(), 2);
  auto b = MakeModel(GetParam(), 2);
  a->Fit(ds, ds.interactions);
  b->Fit(ds, ds.interactions);
  std::vector<float> sa, sb;
  a->ScoreItems(5, &sa);
  b->ScoreItems(5, &sb);
  EXPECT_EQ(sa, sb);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelContractTest,
                         ::testing::Values(Kind::kBprMf, Kind::kFm,
                                           Kind::kDeepFm, Kind::kPadq,
                                           Kind::kGcMc, Kind::kNgcf),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kBprMf: return "BprMf";
                             case Kind::kFm: return "Fm";
                             case Kind::kDeepFm: return "DeepFm";
                             case Kind::kPadq: return "PaDQ";
                             case Kind::kGcMc: return "GcMc";
                             case Kind::kNgcf: return "Ngcf";
                           }
                           return "Unknown";
                         });

// --------------------- Inference fold consistency ----------------------

// The folded DotScorer must rank items exactly as the differentiable
// forward pass would. Scores may differ by a per-user constant (dropped
// user-only terms), so compare pairwise score *differences*. A row-dot
// batch is scored as the trainer's head scores it: ⟨user, item⟩.
template <typename Model>
void CheckFoldConsistency(Model* model, const data::Dataset& ds) {
  Rng rng(321);
  for (int trial = 0; trial < 20; ++trial) {
    auto u = static_cast<uint32_t>(rng.NextBelow(ds.num_users));
    auto i = static_cast<uint32_t>(rng.NextBelow(ds.num_items));
    auto j = static_cast<uint32_t>(rng.NextBelow(ds.num_items));
    std::vector<float> scores;
    model->ScoreItems(u, &scores);
    auto batch = model->ForwardBatch({u}, {i}, {j}, /*training=*/false);
    if (batch.user) {
      batch.pos_scores = ag::RowDot(batch.user, batch.pos);
      batch.neg_scores = ag::RowDot(batch.user, batch.neg);
    }
    float fwd_diff =
        batch.pos_scores->value(0, 0) - batch.neg_scores->value(0, 0);
    float fold_diff = scores[i] - scores[j];
    EXPECT_NEAR(fwd_diff, fold_diff, 2e-3f)
        << "u=" << u << " i=" << i << " j=" << j;
  }
}

TEST(FoldConsistencyTest, BprMf) {
  data::Dataset ds = SmallDataset();
  BprMfConfig c;
  c.embedding_dim = 16;
  c.train = FastTrain(3);
  BprMf model(c);
  model.Fit(ds, ds.interactions);
  CheckFoldConsistency(&model, ds);
}

TEST(FoldConsistencyTest, Fm) {
  data::Dataset ds = SmallDataset();
  FmConfig c;
  c.embedding_dim = 16;
  c.train = FastTrain(3);
  Fm model(c);
  model.Fit(ds, ds.interactions);
  CheckFoldConsistency(&model, ds);
}

TEST(FoldConsistencyTest, DeepFm) {
  data::Dataset ds = SmallDataset();
  DeepFmConfig c;
  c.embedding_dim = 16;
  c.hidden1 = 16;
  c.hidden2 = 8;
  c.train = FastTrain(3);
  DeepFm model(c);
  model.Fit(ds, ds.interactions);
  CheckFoldConsistency(&model, ds);
}

TEST(FoldConsistencyTest, GcMc) {
  data::Dataset ds = SmallDataset();
  GcMcConfig c;
  c.embedding_dim = 16;
  c.dropout = 0.0f;
  c.train = FastTrain(3);
  GcMc model(c);
  model.Fit(ds, ds.interactions);
  CheckFoldConsistency(&model, ds);
}

TEST(FoldConsistencyTest, Ngcf) {
  data::Dataset ds = SmallDataset();
  NgcfConfig c;
  c.embedding_dim = 16;
  c.dropout = 0.0f;
  c.train = FastTrain(3);
  Ngcf model(c);
  model.Fit(ds, ds.interactions);
  CheckFoldConsistency(&model, ds);
}

// ----------------------- Model-specific behaviour ----------------------

TEST(FmTest, PriceFeatureChangesScores) {
  // Two items identical except for price level must get different scores
  // for some user once the model has trained.
  data::Dataset ds = SmallDataset();
  FmConfig c;
  c.embedding_dim = 16;
  c.train = FastTrain(4);
  Fm model(c);
  model.Fit(ds, ds.interactions);
  // Find two items in the same category with different price levels.
  bool found = false;
  for (uint32_t i = 0; i < ds.num_items && !found; ++i) {
    for (uint32_t j = i + 1; j < ds.num_items && !found; ++j) {
      if (ds.item_category[i] == ds.item_category[j] &&
          ds.item_price_level[i] != ds.item_price_level[j]) {
        std::vector<float> scores;
        model.ScoreItems(0, &scores);
        // Not a strict requirement item-by-item, but the embeddings differ
        // so scores should almost surely differ.
        EXPECT_NE(scores[i], scores[j]);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(PadqTest, RequiresQuantizedPrices) {
  data::Dataset ds = SmallDataset();
  ds.item_price_level.clear();
  PaDQ model;
  EXPECT_DEATH(model.Fit(ds, ds.interactions), "quantized");
}

TEST(ModelNamesTest, MatchPaperTables) {
  EXPECT_EQ(ItemPop().name(), "ItemPop");
  EXPECT_EQ(BprMf().name(), "BPR-MF");
  EXPECT_EQ(Fm().name(), "FM");
  EXPECT_EQ(DeepFm().name(), "DeepFM");
  EXPECT_EQ(PaDQ().name(), "PaDQ");
  EXPECT_EQ(GcMc().name(), "GC-MC");
  EXPECT_EQ(Ngcf().name(), "NGCF");
}

}  // namespace
}  // namespace pup::models
