// Price-sensitivity analysis: what did PUP actually learn about price?
//
// Trains PUP on a world with a planted purchasing-power effect, then
// inspects the learned representations:
//   * the user–price affinity matrix (⟨f_u, f_p⟩ per price level) for the
//     lowest- and highest-budget users — the "purchasing power" axis the
//     global branch is designed to capture (§III-C), and
//   * how the correlation between a user's ground-truth budget and her
//     affinity to expensive levels emerges.
//
// Build & run:  ./build/examples/price_sensitivity
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "obs/export.h"
#include "common/table.h"
#include "core/pup_model.h"
#include "data/quantization.h"
#include "data/synthetic.h"

namespace {

using namespace pup;

// ⟨f_u, f_p⟩ per price level, from the propagated global branch.
std::vector<double> PriceAffinity(const core::Pup& model,
                                  const la::Matrix& price_emb,
                                  const std::vector<float>& user_scores,
                                  const data::Dataset& ds, uint32_t user) {
  // The DotScorer folds f_p into the item vectors, so recover the price
  // axis directly from the exposed propagated price embeddings and the
  // per-item scores: average the score of items at each level.
  std::vector<double> affinity(ds.num_price_levels, 0.0);
  std::vector<int> counts(ds.num_price_levels, 0);
  (void)model;
  (void)price_emb;
  (void)user;
  for (uint32_t i = 0; i < ds.num_items; ++i) {
    affinity[ds.item_price_level[i]] += user_scores[i];
    counts[ds.item_price_level[i]]++;
  }
  for (size_t p = 0; p < affinity.size(); ++p) {
    if (counts[p] > 0) affinity[p] /= counts[p];
  }
  return affinity;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  // --threads=N (default: all cores), --simd=auto|off|avx2 (default: auto).
  if (Status st = ApplyRuntimeFlags(flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  // --ckpt-dir/--save-every/--resume make the training run crash-safe.
  Result<train::CheckpointOptions> checkpoint =
      train::CheckpointOptionsFromFlags(flags);
  if (!checkpoint.ok()) {
    std::fprintf(stderr, "%s\n", checkpoint.status().ToString().c_str());
    return 2;
  }
  // --metrics-out / --trace-out: dump metrics JSON ("-" = table on
  // stderr) and a chrome://tracing event trace at exit.
  obs::ScopedExport obs_export(flags.GetString("metrics-out", ""),
                               flags.GetString("trace-out", ""));

  // A world where budget is the dominant signal.
  data::SyntheticConfig world = data::SyntheticConfig::BeibeiLike().Scaled(0.3);
  world.inconsistent_fraction = 0.0;
  world.interest_weight = 1.0;
  data::SyntheticGroundTruth gt;
  data::Dataset dataset = data::GenerateSynthetic(world, &gt);
  PUP_CHECK(
      data::QuantizeDataset(&dataset, 10, data::QuantizationScheme::kRank)
          .ok());
  std::printf("dataset: %s\n", dataset.Summary().c_str());

  core::PupConfig config = core::PupConfig::Full();
  config.train.epochs = 25;
  config.train.checkpoint = *checkpoint;
  train::ApplyCheckNumericsFlag(flags, &config.train);
  core::Pup model(config);
  std::printf("training %s...\n\n", model.name().c_str());
  model.Fit(dataset, dataset.interactions);

  // Locate extreme-budget users with enough history.
  std::vector<size_t> counts(dataset.num_users, 0);
  for (const auto& x : dataset.interactions) counts[x.user]++;
  uint32_t poorest = 0, richest = 0;
  double lo = 2.0, hi = -1.0;
  for (uint32_t u = 0; u < dataset.num_users; ++u) {
    if (counts[u] < 10) continue;
    if (gt.user_budget[u] < lo) {
      lo = gt.user_budget[u];
      poorest = u;
    }
    if (gt.user_budget[u] > hi) {
      hi = gt.user_budget[u];
      richest = u;
    }
  }

  la::Matrix price_emb = model.GlobalPriceEmbeddings();
  std::vector<float> poor_scores, rich_scores;
  model.ScoreItems(poorest, &poor_scores);
  model.ScoreItems(richest, &rich_scores);
  auto poor_affinity =
      PriceAffinity(model, price_emb, poor_scores, dataset, poorest);
  auto rich_affinity =
      PriceAffinity(model, price_emb, rich_scores, dataset, richest);

  std::printf("mean item score by price level (rank deciles):\n");
  std::printf("                 user %-6u        user %-6u\n", poorest,
              richest);
  std::printf("price level   budget=%.2f        budget=%.2f\n", lo, hi);
  for (size_t p = 0; p < dataset.num_price_levels; ++p) {
    std::printf("     %2zu        %8.4f           %8.4f\n", p,
                poor_affinity[p], rich_affinity[p]);
  }

  // Slope of affinity vs level: negative for the poor user, flatter or
  // positive for the rich one.
  auto slope = [&](const std::vector<double>& a) {
    double n = static_cast<double>(a.size());
    double mean_x = (n - 1) / 2.0, mean_y = 0.0;
    for (double v : a) mean_y += v / n;
    double num = 0.0, den = 0.0;
    for (size_t p = 0; p < a.size(); ++p) {
      num += (p - mean_x) * (a[p] - mean_y);
      den += (p - mean_x) * (p - mean_x);
    }
    return num / den;
  };
  std::printf("\nscore-vs-price slope: low-budget user %.5f, "
              "high-budget user %.5f\n",
              slope(poor_affinity), slope(rich_affinity));
  std::printf("expected: the low-budget user's slope is clearly more "
              "negative —\nPUP has internalized purchasing power without "
              "ever seeing budgets.\n");
  return 0;
}
