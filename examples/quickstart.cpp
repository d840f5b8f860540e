// Quickstart: the smallest end-to-end use of the library.
//
//   1. Generate (or load) a dataset of purchases with item prices.
//   2. Quantize prices to discrete levels.
//   3. Split temporally, train PUP on the training interactions.
//   4. Rank unseen items for a user and print the top-10 with prices.
//
// Build & run:  ./build/examples/quickstart
//
// Training is crash-safe: pass --ckpt-dir DIR --save-every N to snapshot
// every N epochs, and --resume DIR to continue an interrupted run
// bitwise-identically (docs/checkpointing.md).
//
// Sampling knobs (docs/sampling.md): --neg-sampling=popularity|price
// draws harder weighted negatives (--neg-alpha sets the exponent), and
// --max-neighbors=N caps per-node graph fan-in PinSage-style.
#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/flags.h"
#include "obs/export.h"
#include "core/pup_model.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/topk.h"

int main(int argc, char** argv) {
  using namespace pup;
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
  Result<size_t> max_neighbors = train::MaxNeighborsFromFlags(flags);
  if (!max_neighbors.ok()) {
    std::fprintf(stderr, "%s\n", max_neighbors.status().ToString().c_str());
    return 2;
  }
  // --metrics-out / --trace-out: dump metrics JSON ("-" = table on
  // stderr) and a chrome://tracing event trace at exit.
  obs::ScopedExport obs_export(flags.GetString("metrics-out", ""),
                               flags.GetString("trace-out", ""));

  // 1. A small e-commerce world. Swap in data::LoadCsv(...) for real data.
  data::SyntheticConfig world = data::SyntheticConfig::BeibeiLike().Scaled(0.3);
  data::Dataset dataset = data::GenerateSynthetic(world);
  std::printf("dataset: %s\n", dataset.Summary().c_str());

  // 2. Price is continuous; PUP wants discrete levels (rank-based
  // quantization is robust to heavy-tailed prices).
  PUP_CHECK(
      data::QuantizeDataset(&dataset, 10, data::QuantizationScheme::kRank)
          .ok());

  // 3. Train on the earliest 60% of interactions.
  data::DataSplit split = data::TemporalSplit(dataset);
  core::PupConfig config = core::PupConfig::Full();  // 56/8 two-branch.
  config.train.epochs = 20;
  config.train.checkpoint = *checkpoint;
  train::ApplyCheckNumericsFlag(flags, &config.train);
  PUP_CHECK(train::ApplyNegSamplingFlags(flags, &config.train).ok());
  config.max_neighbors = *max_neighbors;
  core::Pup model(config);
  std::printf("training %s (%d epochs)...\n", model.name().c_str(),
              config.train.epochs);
  model.Fit(dataset, split.train);

  // 4. Recommend for the most active user: rank all items the user has
  // not bought in training, print the top 10.
  std::vector<size_t> activity(dataset.num_users, 0);
  for (const auto& x : split.train) activity[x.user]++;
  auto user = static_cast<uint32_t>(
      std::max_element(activity.begin(), activity.end()) - activity.begin());

  std::vector<float> scores;
  model.ScoreItems(user, &scores);
  auto train_items = data::BuildUserItems(dataset.num_users, split.train);
  for (uint32_t item : train_items[user]) {
    scores[item] = -std::numeric_limits<float>::infinity();
  }
  std::vector<uint32_t> ranking;
  eval::TopKSelector().Select(scores.data(), scores.size(), 10, &ranking);

  std::printf("\ntop-10 recommendations for user %u (%zu past purchases):\n",
              user, activity[user]);
  std::printf("rank  item   category  price    level  score\n");
  for (size_t r = 0; r < ranking.size(); ++r) {
    uint32_t i = ranking[r];
    std::printf("%4zu  %5u  %8u  %7.2f  %5u  %.4f\n", r + 1, i,
                dataset.item_category[i], dataset.item_price[i],
                dataset.item_price_level[i], scores[i]);
  }
  return 0;
}
