// Tests for src/eval: ranking metrics, CWTP analysis, cold-start tasks,
// and the bounded-heap top-K selector the evaluators and the serving
// engine share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "eval/cold_start.h"
#include "eval/cwtp.h"
#include "eval/metrics.h"
#include "eval/topk.h"

namespace pup::eval {
namespace {

// A scorer with fixed per-user score tables.
class FixedScorer : public Scorer {
 public:
  explicit FixedScorer(std::vector<std::vector<float>> scores)
      : scores_(std::move(scores)) {}
  void ScoreItems(uint32_t user, std::vector<float>* out) const override {
    *out = scores_[user];
  }

 private:
  std::vector<std::vector<float>> scores_;
};

// ------------------------------ TopKSelector ---------------------------

// The historical full-ordering implementation the evaluators used before
// the bounded-heap selector: iota + partial_sort under the library
// tie-break rule (score desc, ties to smaller id). The selector must
// reproduce it bitwise on every input.
std::vector<uint32_t> PartialSortTopK(const std::vector<float>& scores,
                                      size_t k) {
  std::vector<uint32_t> ids(scores.size());
  std::iota(ids.begin(), ids.end(), 0u);
  const size_t kept = std::min(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + kept, ids.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  ids.resize(kept);
  return ids;
}

TEST(TopKSelectorTest, MatchesPartialSortOnRandomAndAdversarialInputs) {
  Rng rng(99);
  TopKSelector selector;
  selector.Reserve(64);
  std::vector<uint32_t> got;
  const float inf = std::numeric_limits<float>::infinity();

  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.NextBelow(300);
    std::vector<float> scores(n);
    for (float& s : scores) {
      // Heavy ties: quantize to a handful of distinct values, and salt
      // in masked (-inf) entries like the evaluators' exclusions.
      const double roll = rng.NextDouble();
      if (roll < 0.15) {
        s = -inf;
      } else {
        s = static_cast<float>(rng.NextBelow(8)) * 0.25f;
      }
    }
    for (size_t k : {size_t{1}, size_t{10}, n / 2 + 1, n, n + 7}) {
      const std::vector<uint32_t> want =
          PartialSortTopK(scores, std::min(k, size_t{64}));
      selector.Select(scores.data(), n, std::min(k, size_t{64}), &got);
      ASSERT_EQ(got, want) << "trial " << trial << " n=" << n << " k=" << k;
    }
  }
}

TEST(TopKSelectorTest, EdgeCases) {
  TopKSelector selector;
  selector.Reserve(8);
  std::vector<uint32_t> got;

  // Empty input.
  selector.Select(nullptr, 0, 4, &got);
  EXPECT_TRUE(got.empty());

  // k larger than n returns all ids in rank order.
  const std::vector<float> scores = {1.0f, 3.0f, 2.0f};
  selector.Select(scores.data(), scores.size(), 8, &got);
  EXPECT_EQ(got, (std::vector<uint32_t>{1, 2, 0}));

  // All-equal scores: ties broken by ascending id.
  const std::vector<float> flat(5, 0.5f);
  selector.Select(flat.data(), flat.size(), 3, &got);
  EXPECT_EQ(got, (std::vector<uint32_t>{0, 1, 2}));
}

// ------------------------------- Metrics -------------------------------

TEST(DcgTest, HandComputed) {
  // Hits at positions 1 and 3 (1-indexed): 1/log2(2) + 1/log2(4) = 1.5.
  EXPECT_NEAR(Dcg({1, 0, 1}), 1.5, 1e-9);
  EXPECT_EQ(Dcg({0, 0, 0}), 0.0);
  EXPECT_EQ(Dcg({}), 0.0);
}

TEST(IdealDcgTest, CapsAtCutoff) {
  EXPECT_NEAR(IdealDcg(1, 10), 1.0, 1e-9);
  EXPECT_NEAR(IdealDcg(2, 10), 1.0 + 1.0 / std::log2(3.0), 1e-9);
  // More relevant items than the cutoff: only k positions count.
  EXPECT_NEAR(IdealDcg(100, 2), 1.0 + 1.0 / std::log2(3.0), 1e-9);
}

TEST(EvaluateRankingTest, PerfectRanking) {
  // One user, items 0..3; test item 0 scored highest.
  FixedScorer scorer({{10.0f, 1.0f, 2.0f, 3.0f}});
  auto result = EvaluateRanking(scorer, 1, 4, {{}}, {{0}}, {1, 2});
  EXPECT_EQ(result.num_users_evaluated, 1u);
  EXPECT_DOUBLE_EQ(result.At(1).recall, 1.0);
  EXPECT_DOUBLE_EQ(result.At(1).ndcg, 1.0);
  EXPECT_DOUBLE_EQ(result.At(2).recall, 1.0);
}

TEST(EvaluateRankingTest, MissedItem) {
  FixedScorer scorer({{0.0f, 1.0f, 2.0f, 3.0f}});
  auto result = EvaluateRanking(scorer, 1, 4, {{}}, {{0}}, {2});
  EXPECT_DOUBLE_EQ(result.At(2).recall, 0.0);
  EXPECT_DOUBLE_EQ(result.At(2).ndcg, 0.0);
}

TEST(EvaluateRankingTest, HandComputedNdcg) {
  // Scores rank items as [3, 2, 1, 0]; test items {2, 0}.
  // Positions: item 2 at rank 2, item 0 at rank 4.
  // DCG@4 = 1/log2(3) + 1/log2(5); IDCG = 1 + 1/log2(3).
  FixedScorer scorer({{0.0f, 1.0f, 2.0f, 3.0f}});
  auto result = EvaluateRanking(scorer, 1, 4, {{}}, {{0, 2}}, {4});
  double expected =
      (1.0 / std::log2(3.0) + 1.0 / std::log2(5.0)) /
      (1.0 + 1.0 / std::log2(3.0));
  EXPECT_NEAR(result.At(4).ndcg, expected, 1e-9);
  EXPECT_DOUBLE_EQ(result.At(4).recall, 1.0);
}

TEST(EvaluateRankingTest, ExcludedItemsNeverRanked) {
  // Item 3 has the top score but is excluded (a train item); the test
  // item 0 must then take rank 1... after items 2 and 1.
  FixedScorer scorer({{0.5f, 1.0f, 2.0f, 3.0f}});
  auto result = EvaluateRanking(scorer, 1, 4, {{3}}, {{0}}, {1, 3});
  EXPECT_DOUBLE_EQ(result.At(1).recall, 0.0);  // Rank 3 after exclusion.
  EXPECT_DOUBLE_EQ(result.At(3).recall, 1.0);
}

TEST(EvaluateRankingTest, SkipsUsersWithoutTestItems) {
  FixedScorer scorer({{1.0f, 0.0f}, {0.0f, 1.0f}});
  auto result = EvaluateRanking(scorer, 2, 2, {{}, {}}, {{}, {1}}, {1});
  EXPECT_EQ(result.num_users_evaluated, 1u);
  EXPECT_DOUBLE_EQ(result.At(1).recall, 1.0);
}

TEST(EvaluateRankingTest, AveragesAcrossUsers) {
  // User 0 hits at rank 1, user 1 misses entirely at K=1.
  FixedScorer scorer({{5.0f, 0.0f}, {5.0f, 0.0f}});
  auto result = EvaluateRanking(scorer, 2, 2, {{}, {}}, {{0}, {1}}, {1});
  EXPECT_DOUBLE_EQ(result.At(1).recall, 0.5);
}

TEST(EvaluateRankingTest, RecallCountsPartialHits) {
  // 3 test items, top-2 contains 2 of them → recall 2/3.
  FixedScorer scorer({{9.0f, 8.0f, 0.0f, 7.0f, 1.0f}});
  auto result = EvaluateRanking(scorer, 1, 5, {{}}, {{0, 1, 2}}, {2});
  EXPECT_NEAR(result.At(2).recall, 2.0 / 3.0, 1e-9);
}

TEST(EvaluateRankingTest, DeterministicTieBreakByIndex) {
  FixedScorer scorer({{1.0f, 1.0f, 1.0f}});
  // All tied; top-1 must be item 0 by the index tie-break.
  auto r0 = EvaluateRanking(scorer, 1, 3, {{}}, {{0}}, {1});
  auto r2 = EvaluateRanking(scorer, 1, 3, {{}}, {{2}}, {1});
  EXPECT_DOUBLE_EQ(r0.At(1).recall, 1.0);
  EXPECT_DOUBLE_EQ(r2.At(1).recall, 0.0);
}

TEST(EvaluateWithCandidatesTest, RestrictsPool) {
  // Item 2 scores highest overall but is outside the candidate pool.
  FixedScorer scorer({{1.0f, 0.5f, 9.0f}});
  auto result =
      EvaluateRankingWithCandidates(scorer, {{0, 1}}, {{0}}, {1});
  EXPECT_EQ(result.num_users_evaluated, 1u);
  EXPECT_DOUBLE_EQ(result.At(1).recall, 1.0);
}

TEST(EvaluateWithCandidatesTest, SkipsEmptyTasks) {
  FixedScorer scorer({{1.0f, 2.0f}, {1.0f, 2.0f}, {1.0f, 2.0f}});
  auto result = EvaluateRankingWithCandidates(
      scorer, {{}, {0, 1}, {0}}, {{0}, {}, {0}}, {1});
  EXPECT_EQ(result.num_users_evaluated, 1u);  // Only user 2 active.
}

// Both evaluators select once per user at the largest cutoff and score
// every cutoff on its prefix. Each cutoff's metrics must equal a
// single-cutoff evaluation bitwise, also when the list is unsorted,
// repeats a cutoff, or asks for more items than the catalog holds.
TEST(EvaluateRankingTest, EveryCutoffEqualsItsOwnSingleCutoffCall) {
  constexpr size_t kUsers = 40, kItems = 150;
  Rng rng(11);
  std::vector<std::vector<float>> table(kUsers, std::vector<float>(kItems));
  std::vector<std::vector<uint32_t>> exclude(kUsers);
  std::vector<std::vector<uint32_t>> test(kUsers);
  std::vector<std::vector<uint32_t>> candidates(kUsers);
  for (size_t u = 0; u < kUsers; ++u) {
    for (size_t i = 0; i < kItems; ++i) {
      // Coarse scores, so ties reach every cutoff.
      table[u][i] = static_cast<float>(rng.NextBelow(20));
      const uint64_t role = rng.NextBelow(10);
      if (role == 0) exclude[u].push_back(static_cast<uint32_t>(i));
      if (role == 1) test[u].push_back(static_cast<uint32_t>(i));
      if (role != 0 && role < 6) {
        candidates[u].push_back(static_cast<uint32_t>(i));
      }
    }
  }
  FixedScorer scorer(std::move(table));
  const std::vector<int> sorted = {10, 50, 100};
  const std::vector<int> unsorted = {100, 5, 50, 5, 400};
  for (const std::vector<int>& cutoffs : {sorted, unsorted}) {
    const EvalResult full =
        EvaluateRanking(scorer, kUsers, kItems, exclude, test, cutoffs);
    const EvalResult cand =
        EvaluateRankingWithCandidates(scorer, candidates, test, cutoffs);
    for (int k : cutoffs) {
      const EvalResult one_full =
          EvaluateRanking(scorer, kUsers, kItems, exclude, test, {k});
      const EvalResult one_cand =
          EvaluateRankingWithCandidates(scorer, candidates, test, {k});
      EXPECT_EQ(full.num_users_evaluated, one_full.num_users_evaluated);
      EXPECT_EQ(full.At(k).recall, one_full.At(k).recall) << "k=" << k;
      EXPECT_EQ(full.At(k).ndcg, one_full.At(k).ndcg) << "k=" << k;
      EXPECT_EQ(cand.At(k).recall, one_cand.At(k).recall) << "k=" << k;
      EXPECT_EQ(cand.At(k).ndcg, one_cand.At(k).ndcg) << "k=" << k;
    }
    std::vector<int> distinct = cutoffs;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    EXPECT_EQ(full.at.size(), distinct.size());
    EXPECT_EQ(cand.at.size(), distinct.size());
  }
}

// Candidate ids must be validated in Release builds too — an
// out-of-range id used to be a PUP_DCHECK, i.e. a silent out-of-bounds
// read/write outside Debug. The check fires before any score is written.
TEST(EvaluateWithCandidatesDeathTest, OutOfRangeCandidateAborts) {
  FixedScorer scorer({{1.0f, 0.5f, 9.0f}});
  EXPECT_DEATH(EvaluateRankingWithCandidates(scorer, {{0, 7}}, {{0}}, {1}),
               "candidate item id out of range");
}

// --------------------------------- CWTP --------------------------------

data::Dataset MakeCwtpDataset() {
  data::Dataset ds;
  ds.num_users = 2;
  ds.num_items = 4;
  ds.num_categories = 2;
  ds.num_price_levels = 3;
  ds.item_category = {0, 0, 1, 1};
  ds.item_price = {1, 2, 3, 4};
  ds.item_price_level = {0, 2, 1, 2};
  // u0: items 0, 1 (cat 0, levels 0 and 2), item 2 (cat 1, level 1).
  // u1: item 3 (cat 1, level 2).
  ds.interactions = {{0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {1, 3, 3}};
  return ds;
}

TEST(CwtpTest, MaxPaidLevelPerCategory) {
  data::Dataset ds = MakeCwtpDataset();
  auto table = ComputeCwtp(ds, ds.interactions);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table[0][0], 2u);  // Max of levels 0, 2 in cat 0.
  EXPECT_EQ(table[0][1], 1u);
  EXPECT_FALSE(table[1][0].has_value());
  EXPECT_EQ(table[1][1], 2u);
}

TEST(CwtpTest, EntropyZeroWhenConsistent) {
  std::vector<std::optional<uint32_t>> row = {2u, 2u, 2u};
  EXPECT_DOUBLE_EQ(CwtpEntropy(row), 0.0);
}

TEST(CwtpTest, EntropyMaxWhenAllDistinct) {
  std::vector<std::optional<uint32_t>> row = {0u, 1u, 2u};
  EXPECT_NEAR(CwtpEntropy(row), std::log(3.0), 1e-9);
}

TEST(CwtpTest, EntropyIgnoresMissingCategories) {
  std::vector<std::optional<uint32_t>> row = {1u, std::nullopt, 1u,
                                              std::nullopt};
  EXPECT_DOUBLE_EQ(CwtpEntropy(row), 0.0);
}

TEST(CwtpTest, EntropyEmptyUserIsZero) {
  std::vector<std::optional<uint32_t>> row = {std::nullopt, std::nullopt};
  EXPECT_DOUBLE_EQ(CwtpEntropy(row), 0.0);
}

TEST(CwtpTest, EntropyOfMixedDistribution) {
  // Levels {0, 0, 1}: H = -(2/3 ln 2/3 + 1/3 ln 1/3).
  std::vector<std::optional<uint32_t>> row = {0u, 0u, 1u};
  double expected =
      -(2.0 / 3.0 * std::log(2.0 / 3.0) + 1.0 / 3.0 * std::log(1.0 / 3.0));
  EXPECT_NEAR(CwtpEntropy(row), expected, 1e-9);
}

TEST(CwtpTest, GroupingRespectsThresholdAndMinCategories) {
  data::Dataset ds = MakeCwtpDataset();
  auto table = ComputeCwtp(ds, ds.interactions);
  // u0 has 2 categories with distinct CWTP (entropy ln 2); u1 has 1
  // category and is excluded.
  auto groups = GroupUsersByEntropy(table, 0.1, 2);
  EXPECT_EQ(groups.inconsistent, (std::vector<uint32_t>{0}));
  EXPECT_TRUE(groups.consistent.empty());
  auto groups_loose = GroupUsersByEntropy(table, 1.0, 2);
  EXPECT_EQ(groups_loose.consistent, (std::vector<uint32_t>{0}));
}

TEST(CwtpTest, HeatmapCounts) {
  data::Dataset ds = MakeCwtpDataset();
  auto cells = PriceCategoryHeatmap(ds, ds.interactions, 0);
  ASSERT_EQ(cells.size(), ds.num_categories * ds.num_price_levels);
  EXPECT_EQ(cells[0 * 3 + 0], 1.0);  // Cat 0, level 0.
  EXPECT_EQ(cells[0 * 3 + 2], 1.0);  // Cat 0, level 2.
  EXPECT_EQ(cells[1 * 3 + 1], 1.0);  // Cat 1, level 1.
  EXPECT_EQ(cells[1 * 3 + 2], 0.0);
}

// ------------------------------ Cold start -----------------------------

data::Dataset MakeColdStartDataset() {
  // 7 categories A..G (the paper's worked example): user 0 trains on
  // categories 0, 1, 2 and tests on category 4.
  data::Dataset ds;
  ds.num_users = 1;
  ds.num_items = 14;  // Two items per category.
  ds.num_categories = 7;
  ds.num_price_levels = 1;
  ds.item_category.resize(14);
  ds.item_price.assign(14, 1.0f);
  ds.item_price_level.assign(14, 0);
  for (uint32_t i = 0; i < 14; ++i) ds.item_category[i] = i / 2;
  return ds;
}

TEST(ColdStartTest, CirPoolIsTestPositiveCategories) {
  data::Dataset ds = MakeColdStartDataset();
  std::vector<data::Interaction> train = {{0, 0, 0}, {0, 2, 1}, {0, 4, 2}};
  std::vector<data::Interaction> test = {{0, 8, 3}};  // Category 4.
  auto task = BuildColdStartTask(ds, train, test,
                                 ColdStartProtocol::kCir);
  EXPECT_EQ(task.num_active_users, 1u);
  // Pool = both items of category 4.
  EXPECT_EQ(task.candidates[0], (std::vector<uint32_t>{8, 9}));
  EXPECT_EQ(task.test_items[0], (std::vector<uint32_t>{8}));
}

TEST(ColdStartTest, UcirPoolIsAllUnexploredCategories) {
  data::Dataset ds = MakeColdStartDataset();
  std::vector<data::Interaction> train = {{0, 0, 0}, {0, 2, 1}, {0, 4, 2}};
  std::vector<data::Interaction> test = {{0, 8, 3}};
  auto task = BuildColdStartTask(ds, train, test,
                                 ColdStartProtocol::kUcir);
  // Unexplored categories: 3, 4, 5, 6 → items 6..13.
  EXPECT_EQ(task.candidates[0],
            (std::vector<uint32_t>{6, 7, 8, 9, 10, 11, 12, 13}));
}

TEST(ColdStartTest, ExploredCategoryTestItemsAreDropped) {
  data::Dataset ds = MakeColdStartDataset();
  std::vector<data::Interaction> train = {{0, 0, 0}};
  // Test item 1 is in category 0 (explored) — dropped; item 8 stays.
  std::vector<data::Interaction> test = {{0, 1, 1}, {0, 8, 2}};
  auto task = BuildColdStartTask(ds, train, test,
                                 ColdStartProtocol::kCir);
  EXPECT_EQ(task.test_items[0], (std::vector<uint32_t>{8}));
}

TEST(ColdStartTest, UserWithoutUnexploredTestIsInactive) {
  data::Dataset ds = MakeColdStartDataset();
  std::vector<data::Interaction> train = {{0, 0, 0}};
  std::vector<data::Interaction> test = {{0, 1, 1}};  // Same category.
  auto task = BuildColdStartTask(ds, train, test,
                                 ColdStartProtocol::kCir);
  EXPECT_EQ(task.num_active_users, 0u);
  EXPECT_TRUE(task.candidates[0].empty());
}

TEST(ColdStartTest, TestItemsAlwaysInsidePool) {
  data::Dataset ds = MakeColdStartDataset();
  std::vector<data::Interaction> train = {{0, 0, 0}, {0, 6, 1}};
  std::vector<data::Interaction> test = {{0, 9, 2}, {0, 13, 3}};
  for (auto protocol :
       {ColdStartProtocol::kCir, ColdStartProtocol::kUcir}) {
    auto task = BuildColdStartTask(ds, train, test, protocol);
    for (uint32_t item : task.test_items[0]) {
      EXPECT_TRUE(std::binary_search(task.candidates[0].begin(),
                                     task.candidates[0].end(), item));
    }
  }
}

}  // namespace
}  // namespace pup::eval
