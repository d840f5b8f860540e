// Micro-benchmarks (google-benchmark): one training epoch per baseline
// model on a small fixed dataset — the cost profile behind the table
// benches — plus the negative-sampling draw costs behind docs/sampling.md.
// PUP's uniform-negative epoch is timed by the benchmark ledger's
// train-pup workload (bench_ledger/README.md).
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/pup_model.h"
#include "common/check.h"
#include "common/rng.h"
#include "data/alias.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "models/bpr_mf.h"
#include "models/deep_fm.h"
#include "models/fm.h"
#include "models/gc_mc.h"
#include "models/ngcf.h"

namespace {

using namespace pup;

const data::Dataset& BenchDataset() {
  static const data::Dataset ds = [] {
    data::SyntheticConfig config =
        data::SyntheticConfig::YelpLike().Scaled(0.2);
    config.num_interactions = 12000;
    data::Dataset d = data::GenerateSynthetic(config);
    PUP_CHECK(
        data::QuantizeDataset(&d, 4, data::QuantizationScheme::kUniform)
            .ok());
    return d;
  }();
  return ds;
}

train::TrainOptions OneEpoch() {
  train::TrainOptions t;
  t.epochs = 1;
  t.batch_size = 1024;
  return t;
}

template <typename ModelFactory>
void EpochBench(benchmark::State& state, ModelFactory factory) {
  const data::Dataset& ds = BenchDataset();
  for (auto _ : state) {
    auto model = factory();
    model->Fit(ds, ds.interactions);
    benchmark::DoNotOptimize(model.get());
  }
}

void BM_EpochBprMf(benchmark::State& state) {
  EpochBench(state, [] {
    models::BprMfConfig c;
    c.train = OneEpoch();
    return std::make_unique<models::BprMf>(c);
  });
}
BENCHMARK(BM_EpochBprMf)->Unit(benchmark::kMillisecond);

void BM_EpochFm(benchmark::State& state) {
  EpochBench(state, [] {
    models::FmConfig c;
    c.train = OneEpoch();
    return std::make_unique<models::Fm>(c);
  });
}
BENCHMARK(BM_EpochFm)->Unit(benchmark::kMillisecond);

void BM_EpochDeepFm(benchmark::State& state) {
  EpochBench(state, [] {
    models::DeepFmConfig c;
    c.train = OneEpoch();
    return std::make_unique<models::DeepFm>(c);
  });
}
BENCHMARK(BM_EpochDeepFm)->Unit(benchmark::kMillisecond);

void BM_EpochGcMc(benchmark::State& state) {
  EpochBench(state, [] {
    models::GcMcConfig c;
    c.train = OneEpoch();
    return std::make_unique<models::GcMc>(c);
  });
}
BENCHMARK(BM_EpochGcMc)->Unit(benchmark::kMillisecond);

void BM_EpochNgcf(benchmark::State& state) {
  EpochBench(state, [] {
    models::NgcfConfig c;
    c.train = OneEpoch();
    return std::make_unique<models::Ngcf>(c);
  });
}
BENCHMARK(BM_EpochNgcf)->Unit(benchmark::kMillisecond);

// --- negative-sampling draws (docs/sampling.md) ---------------------------
//
// BM_AliasDraw is flat in the catalog size (Vose alias: two array reads
// per draw). BM_RejectionWeightedDraw is the naive alternative — propose
// uniform, accept with probability w/w_max — whose acceptance rate decays
// as Zipf skew concentrates mass: per-draw cost GROWS with the catalog.
// Run both across 1k/10k/100k to see O(1) vs growing.

std::vector<double> ZipfWeights(size_t n) {
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), 0.8);
  }
  return w;
}

void BM_AliasDraw(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  data::AliasTable table;
  table.Build(ZipfWeights(n));
  Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(&rng));
  }
}
BENCHMARK(BM_AliasDraw)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RejectionWeightedDraw(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> w = ZipfWeights(n);
  const double w_max = w[0];  // Zipf weights are descending.
  Rng rng(17);
  for (auto _ : state) {
    size_t pick;
    do {
      pick = static_cast<size_t>(rng.NextBelow(n));
    } while (rng.NextDouble() * w_max >= w[pick]);
    benchmark::DoNotOptimize(pick);
  }
}
BENCHMARK(BM_RejectionWeightedDraw)->Arg(1000)->Arg(10000)->Arg(100000);

// One PUP epoch with popularity-weighted negatives: the per-epoch alias
// rebuild plus the weighted draws, end to end.
void BM_EpochPupWeightedNegatives(benchmark::State& state) {
  EpochBench(state, [] {
    core::PupConfig c = core::PupConfig::Full();
    c.train = OneEpoch();
    c.train.neg_sampling = data::NegSampling::kPopularity;
    c.train.neg_alpha = 0.75;
    return std::make_unique<core::Pup>(c);
  });
}
BENCHMARK(BM_EpochPupWeightedNegatives)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
