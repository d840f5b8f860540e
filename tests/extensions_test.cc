// Tests for the extension modules: AttributeGraph, ExtendedPup,
// value-aware re-ranking, and binary matrix IO.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <unistd.h>

#include "core/extended_pup.h"
#include "core/pup_model.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "eval/value_aware.h"
#include "graph/attribute_graph.h"
#include "la/io.h"

namespace pup {
namespace {

// --------------------------- AttributeGraph ----------------------------

graph::AttributeGraph MakeTinyAttributeGraph() {
  // 2 users, 3 items; item attrs: color (2 values), size (3 values);
  // user attr: tier (2 values).
  return graph::AttributeGraph(
      2, 3, {{0, 0}, {0, 1}, {1, 2}},
      {{"color", 2, {0, 1, 1}}, {"size", 3, {2, 0, 1}}},
      {{"tier", 2, {1, 0}}});
}

TEST(AttributeGraphTest, NodeLayout) {
  auto g = MakeTinyAttributeGraph();
  EXPECT_EQ(g.num_nodes(), 2u + 3u + 2u + 3u + 2u);
  EXPECT_EQ(g.UserNode(1), 1u);
  EXPECT_EQ(g.ItemNode(2), 4u);
  EXPECT_EQ(g.ItemAttributeNode(0, 0), 5u);  // color block.
  EXPECT_EQ(g.ItemAttributeNode(1, 0), 7u);  // size block.
  EXPECT_EQ(g.UserAttributeNode(0, 1), 11u);  // tier block.
}

TEST(AttributeGraphTest, EdgesFollowAttributeValues) {
  auto g = MakeTinyAttributeGraph();
  const auto& adj = g.adjacency();
  // Item 0 has color 0, size 2, one user, self → 4 entries.
  EXPECT_EQ(adj.RowNnz(g.ItemNode(0)), 4u);
  EXPECT_GT(adj.At(g.ItemNode(0), g.ItemAttributeNode(0, 0)), 0.0f);
  EXPECT_GT(adj.At(g.ItemNode(0), g.ItemAttributeNode(1, 2)), 0.0f);
  EXPECT_EQ(adj.At(g.ItemNode(0), g.ItemAttributeNode(0, 1)), 0.0f);
  // User 0 has tier 1, two items, self → 4 entries.
  EXPECT_EQ(adj.RowNnz(g.UserNode(0)), 4u);
  EXPECT_GT(adj.At(g.UserNode(0), g.UserAttributeNode(0, 1)), 0.0f);
}

TEST(AttributeGraphTest, RowsSumToOne) {
  auto g = MakeTinyAttributeGraph();
  const auto& adj = g.adjacency();
  for (size_t r = 0; r < adj.rows(); ++r) {
    float sum = 0.0f;
    for (uint32_t k = adj.row_ptr()[r]; k < adj.row_ptr()[r + 1]; ++k) {
      sum += adj.values()[k];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6f) << "row " << r;
  }
}

TEST(AttributeGraphTest, NoAttributesIsBipartite) {
  graph::AttributeGraph g(2, 2, {{0, 0}, {1, 1}}, {}, {});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.adjacency().RowNnz(g.UserNode(0)), 2u);  // Item + self.
}

TEST(AttributeGraphTest, MatchesHeteroGraphForCategoryPrice) {
  // AttributeGraph with {category, price} must reproduce HeteroGraph's
  // adjacency exactly (up to node numbering, which matches by layout).
  std::vector<std::pair<uint32_t, uint32_t>> edges = {{0, 0}, {0, 1}, {1, 2}};
  std::vector<uint32_t> cats = {0, 0, 1};
  std::vector<uint32_t> prices = {0, 1, 1};
  graph::HeteroGraph h(2, 3, 2, 2, edges, cats, prices);
  graph::AttributeGraph a(2, 3, edges,
                          {{"category", 2, cats}, {"price", 2, prices}});
  ASSERT_EQ(h.num_nodes(), a.num_nodes());
  ASSERT_EQ(h.adjacency().nnz(), a.adjacency().nnz());
  for (size_t r = 0; r < h.num_nodes(); ++r) {
    for (size_t c = 0; c < h.num_nodes(); ++c) {
      EXPECT_FLOAT_EQ(h.adjacency().At(r, c), a.adjacency().At(r, c))
          << "(" << r << "," << c << ")";
    }
  }
}

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
  EXPECT_EQ(model.graph()->num_user_attributes(), 1u);
  EXPECT_EQ(model.graph()->num_item_attributes(), 2u);
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

// ------------------------------ Matrix IO ------------------------------

TEST(MatrixIoTest, RoundTrip) {
  Rng rng(3);
  la::Matrix m = la::Matrix::Gaussian(17, 9, 1.0f, &rng);
  std::string path = testing::TempDir() + "/pup_matrix.bin";
  ASSERT_TRUE(la::WriteMatrix(m, path).ok());
  auto loaded = la::ReadMatrix(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->rows(), m.rows());
  ASSERT_EQ(loaded->cols(), m.cols());
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(loaded->FlatAt(i), m.FlatAt(i));
  }
  std::remove(path.c_str());
}

TEST(MatrixIoTest, EmptyMatrixRoundTrip) {
  la::Matrix m;
  std::string path = testing::TempDir() + "/pup_empty.bin";
  ASSERT_TRUE(la::WriteMatrix(m, path).ok());
  auto loaded = la::ReadMatrix(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows(), 0u);
  std::remove(path.c_str());
}

TEST(MatrixIoTest, MissingFileIsIOError) {
  auto result = la::ReadMatrix("/nonexistent/m.bin");
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(MatrixIoTest, BadMagicRejected) {
  std::string path = testing::TempDir() + "/pup_notmatrix.bin";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("JUNKJUNKJUNKJUNKJUNKJUNK", f);
    fclose(f);
  }
  auto result = la::ReadMatrix(path);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(MatrixIoTest, TruncatedFileIsIOError) {
  Rng rng(4);
  la::Matrix m = la::Matrix::Gaussian(8, 8, 1.0f, &rng);
  std::string path = testing::TempDir() + "/pup_trunc.bin";
  ASSERT_TRUE(la::WriteMatrix(m, path).ok());
  // Truncate the payload.
  ASSERT_EQ(truncate(path.c_str(), 24), 0);
  auto result = la::ReadMatrix(path);
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pup
