// Tests for the extension modules: ExtendedPup and value-aware re-ranking.
#include <gtest/gtest.h>

#include <cmath>

#include "core/extended_pup.h"
#include "core/pup_model.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "eval/value_aware.h"

namespace pup {
namespace {

// ----------------------------- ExtendedPup -----------------------------

data::Dataset SmallDataset(uint64_t seed = 77) {
  data::SyntheticConfig config =
      data::SyntheticConfig::BeibeiLike().Scaled(0.1);
  config.num_interactions = 6000;
  config.seed = seed;
  data::Dataset ds = data::GenerateSynthetic(config);
  EXPECT_TRUE(
      data::QuantizeDataset(&ds, 10, data::QuantizationScheme::kRank).ok());
  return ds;
}

core::ExtendedPupConfig BaseExtendedConfig(const data::Dataset& ds,
                                           int epochs = 5) {
  core::ExtendedPupConfig config;
  config.embedding_dim = 16;
  config.dropout = 0.0f;
  config.train.epochs = epochs;
  config.train.batch_size = 512;
  config.attributes = {
      {"category", ds.num_categories, ds.item_category, false},
      {"price", ds.num_price_levels, ds.item_price_level, false},
  };
  return config;
}

TEST(ExtendedPupTest, TrainsAndScores) {
  data::Dataset ds = SmallDataset();
  core::ExtendedPup model(BaseExtendedConfig(ds));
  model.Fit(ds, ds.interactions);
  std::vector<float> scores;
  model.ScoreItems(1, &scores);
  ASSERT_EQ(scores.size(), ds.num_items);
  for (float s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(ExtendedPupTest, SupportsUserAttributes) {
  data::Dataset ds = SmallDataset();
  auto config = BaseExtendedConfig(ds);
  // Derive a fake user attribute: activity tier by user id parity.
  std::vector<uint32_t> tier(ds.num_users);
  for (uint32_t u = 0; u < ds.num_users; ++u) tier[u] = u % 3;
  config.attributes.push_back({"tier", 3, tier, true});
  core::ExtendedPup model(config);
  model.Fit(ds, ds.interactions);
  std::vector<float> scores;
  model.ScoreItems(0, &scores);
  ASSERT_EQ(scores.size(), ds.num_items);
  // Users, items, the category and price blocks, and the tier block.
  EXPECT_EQ(model.graph()->num_nodes(),
            ds.num_users + ds.num_items + ds.num_categories +
                ds.num_price_levels + 3);
}

TEST(ExtendedPupTest, FoldMatchesForwardDifferences) {
  data::Dataset ds = SmallDataset();
  core::ExtendedPup model(BaseExtendedConfig(ds, 3));
  model.Fit(ds, ds.interactions);
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    auto u = static_cast<uint32_t>(rng.NextBelow(ds.num_users));
    auto i = static_cast<uint32_t>(rng.NextBelow(ds.num_items));
    auto j = static_cast<uint32_t>(rng.NextBelow(ds.num_items));
    std::vector<float> scores;
    model.ScoreItems(u, &scores);
    auto batch = model.ForwardBatch({u}, {i}, {j}, /*training=*/false);
    float fwd = batch.pos_scores->value(0, 0) - batch.neg_scores->value(0, 0);
    EXPECT_NEAR(fwd, scores[i] - scores[j], 2e-3f);
  }
}

TEST(ExtendedPupTest, LearnsOnTrainingData) {
  data::Dataset ds = SmallDataset();
  core::ExtendedPup model(BaseExtendedConfig(ds, 8));
  model.Fit(ds, ds.interactions);
  auto user_items = ds.UserItemLists();
  auto result = eval::EvaluateRanking(
      model, ds.num_users, ds.num_items,
      std::vector<std::vector<uint32_t>>(ds.num_users), user_items, {20});
  EXPECT_GT(result.At(20).recall,
            1.5 * 20.0 / static_cast<double>(ds.num_items));
}

// ---------------------------- Value-aware ------------------------------

class ConstantScorer : public eval::Scorer {
 public:
  explicit ConstantScorer(std::vector<float> scores)
      : scores_(std::move(scores)) {}
  void ScoreItems(uint32_t, std::vector<float>* out) const override {
    *out = scores_;
  }

 private:
  std::vector<float> scores_;
};

TEST(ValueAwareTest, BetaZeroIsIdentityRanking) {
  ConstantScorer base({1.0f, 3.0f, 2.0f});
  eval::ValueAwareScorer wrapped(base, {10.0f, 1.0f, 100.0f}, 0.0f);
  std::vector<float> scores;
  wrapped.ScoreItems(0, &scores);
  EXPECT_FLOAT_EQ(scores[0], 1.0f);
  EXPECT_FLOAT_EQ(scores[1], 3.0f);
  EXPECT_FLOAT_EQ(scores[2], 2.0f);
}

TEST(ValueAwareTest, LargeBetaRanksByPrice) {
  ConstantScorer base({1.0f, 3.0f, 2.0f});
  eval::ValueAwareScorer wrapped(base, {10.0f, 1.0f, 100.0f}, 100.0f);
  std::vector<float> scores;
  wrapped.ScoreItems(0, &scores);
  EXPECT_GT(scores[2], scores[0]);
  EXPECT_GT(scores[0], scores[1]);
}

TEST(ValueAwareTest, RevenueAtKCountsHitPrices) {
  // Items 0..3; scorer ranks 3 > 2 > 1 > 0; user's test items {3, 0}.
  ConstantScorer base({0.0f, 1.0f, 2.0f, 3.0f});
  std::vector<float> prices = {5.0f, 6.0f, 7.0f, 8.0f};
  double rev2 = eval::RevenueAtK(base, 1, 4, {{}}, {{0, 3}}, prices, 2);
  EXPECT_DOUBLE_EQ(rev2, 8.0);  // Only item 3 hits in the top-2.
  double rev4 = eval::RevenueAtK(base, 1, 4, {{}}, {{0, 3}}, prices, 4);
  EXPECT_DOUBLE_EQ(rev4, 13.0);  // Items 3 and 0.
}

TEST(ValueAwareTest, RevenueAtKBreaksTiesBySmallerId) {
  // Items 1 and 2 tie for the second slot of the top-2 behind item 0. The
  // library's ordering rule (eval::TopKSelector) keeps the smaller id, so
  // item 1 earns its price and item 2 earns nothing.
  ConstantScorer base({3.0f, 1.0f, 1.0f, 0.0f});
  std::vector<float> prices = {5.0f, 6.0f, 7.0f, 8.0f};
  EXPECT_DOUBLE_EQ(eval::RevenueAtK(base, 1, 4, {{}}, {{1}}, prices, 2), 6.0);
  EXPECT_DOUBLE_EQ(eval::RevenueAtK(base, 1, 4, {{}}, {{2}}, prices, 2), 0.0);
}

TEST(ValueAwareTest, ExcludedItemsEarnNothing) {
  ConstantScorer base({0.0f, 1.0f});
  double rev = eval::RevenueAtK(base, 1, 2, {{1}}, {{1}}, {2.0f, 9.0f}, 2);
  EXPECT_DOUBLE_EQ(rev, 0.0);
}

TEST(ValueAwareTest, BetaTradesAccuracyForRevenue) {
  // On a trained model, raising beta must not decrease measured revenue
  // of the top-K while (typically) lowering recall.
  data::Dataset ds = SmallDataset(99);
  data::DataSplit split = data::TemporalSplit(ds);
  core::PupConfig config = core::PupConfig::Full();
  config.embedding_dim = 16;
  config.category_branch_dim = 4;
  config.train.epochs = 8;
  core::Pup model(config);
  model.Fit(ds, split.train);

  auto exclude = data::BuildUserItems(ds.num_users, split.train);
  auto test_items = data::BuildUserItems(ds.num_users, split.test);

  eval::ValueAwareScorer greedy(model, ds.item_price, 4.0f);
  auto base_metrics = eval::EvaluateRanking(model, ds.num_users, ds.num_items,
                                            exclude, test_items, {50});
  auto greedy_metrics = eval::EvaluateRanking(
      greedy, ds.num_users, ds.num_items, exclude, test_items, {50});
  // The adjusted ranking differs and typically trades recall away.
  EXPECT_NE(base_metrics.At(50).recall, greedy_metrics.At(50).recall);
}

}  // namespace
}  // namespace pup
