#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "data/kcore.h"
#include "obs/registry.h"

namespace pup::bench {
namespace {

// Run-wide case tally behind Finish()'s exit code.
size_t g_cases = 0;
std::vector<std::string> g_failures;

}  // namespace

Env GetEnv() {
  Env env;
  if (const char* s = std::getenv("PUP_BENCH_SCALE")) {
    double v = std::atof(s);
    if (v > 0.0) env.scale = v;
  }
  if (const char* s = std::getenv("PUP_BENCH_EPOCHS")) {
    int v = std::atoi(s);
    if (v > 0) env.epochs = v;
  }
  if (const char* s = std::getenv("PUP_BENCH_DIM")) {
    int v = std::atoi(s);
    if (v > 0) env.embedding_dim = static_cast<size_t>(v);
  }
  if (const char* s = std::getenv("PUP_BENCH_THREADS")) {
    env.threads = std::atoi(s);
  }
  ThreadPool::SetGlobalThreads(env.threads);
  // PUP_BENCH_SIMD mirrors the --simd flag (auto|off|avx2);
  // unset keeps the auto-detected backend.
  if (const char* s = std::getenv("PUP_BENCH_SIMD")) {
    const Status st = simd::SetActiveIsaFromString(s);
    PUP_CHECK_MSG(st.ok(), st.message().c_str());
  }
  return env;
}

train::TrainOptions DefaultTrain(const Env& env) {
  train::TrainOptions t;
  t.epochs = env.epochs;
  t.batch_size = 1024;
  t.learning_rate = 1e-2f;
  t.negative_rate = 1;
  return t;
}

PreparedData Prepare(const data::SyntheticConfig& config, size_t price_levels,
                     data::QuantizationScheme scheme, size_t kcore) {
  PreparedData d;
  d.dataset = data::GenerateSynthetic(config);
  PUP_CHECK(data::QuantizeDataset(&d.dataset, price_levels, scheme).ok());
  d.dataset = data::KCoreFilter(d.dataset, kcore);
  data::DataSplit split = data::TemporalSplit(d.dataset);
  d.train = std::move(split.train);
  d.valid = std::move(split.valid);
  d.test = std::move(split.test);

  auto train_items = data::BuildUserItems(d.dataset.num_users, d.train);
  auto valid_items = data::BuildUserItems(d.dataset.num_users, d.valid);
  d.exclude.resize(d.dataset.num_users);
  for (size_t u = 0; u < d.dataset.num_users; ++u) {
    d.exclude[u] = train_items[u];
    d.exclude[u].insert(d.exclude[u].end(), valid_items[u].begin(),
                        valid_items[u].end());
    std::sort(d.exclude[u].begin(), d.exclude[u].end());
  }
  d.test_items = data::BuildUserItems(d.dataset.num_users, d.test);
  return d;
}

RunResult FitAndEvaluate(models::Recommender* model, const PreparedData& d,
                         const std::vector<int>& cutoffs) {
  RunResult result;
  Stopwatch timer;
  model->Fit(d.dataset, d.train);
  result.fit_seconds = timer.Seconds();
  result.metrics =
      eval::EvaluateRanking(*model, d.dataset.num_users, d.dataset.num_items,
                            d.exclude, d.test_items, cutoffs);
  RecordMetrics(model->name(), result.metrics, cutoffs);
  return result;
}

void RecordCase(const std::string& name, bool ok, const std::string& note) {
  ++g_cases;
  if (!ok) {
    g_failures.push_back(name);
    std::fprintf(stderr, "[bench] case FAILED: %s%s%s\n", name.c_str(),
                 note.empty() ? "" : " — ", note.c_str());
  }
}

void RecordMetrics(const std::string& name, const eval::EvalResult& result,
                   const std::vector<int>& cutoffs) {
  bool ok = true;
  std::string note;
  for (int k : cutoffs) {
    for (double v : {result.At(k).recall, result.At(k).ndcg}) {
      if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
        ok = false;
        note = "metric out of [0,1] at cutoff " + std::to_string(k);
      }
    }
  }
  RecordCase(name, ok, note);
}

int Finish() {
  std::string json = "{\"cases\":" + std::to_string(g_cases) +
                     ",\"failed\":" + std::to_string(g_failures.size()) +
                     ",\"failures\":[";
  for (size_t i = 0; i < g_failures.size(); ++i) {
    if (i > 0) json += ",";
    json += "\"" + g_failures[i] + "\"";
  }
  // Every summary names the SIMD backend that produced it — a bench
  // number is meaningless without the hardware path attached.
  const simd::Isa isa = simd::ActiveIsa();
  json += std::string("],\"simd\":{\"isa\":\"") + simd::IsaName(isa) +
          "\",\"lane_width\":" + std::to_string(simd::IsaLaneWidth(isa)) + "}";
  // Every summary carries the run's metrics registry, so BENCH_*.json
  // captures where the time and work went (spans, kernel dispatches,
  // checkpoint bytes) alongside the pass/fail tally.
  json += ",\"obs\":" + obs::Registry::Global().ToJson();
  json += "}";
  std::printf("%s\n", json.c_str());
  if (g_cases == 0) {
    std::fprintf(stderr, "[bench] FAILED: no cases were recorded\n");
    return 1;
  }
  return g_failures.empty() ? 0 : 1;
}

std::vector<std::string> MetricCells(const eval::EvalResult& result,
                                     const std::vector<int>& cutoffs) {
  std::vector<std::string> cells;
  for (int k : cutoffs) {
    cells.push_back(FormatFixed(result.At(k).recall, 4));
    cells.push_back(FormatFixed(result.At(k).ndcg, 4));
  }
  return cells;
}

void PrintHeader(const std::string& title, const PreparedData& d,
                 const Env& env) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("dataset: %s | train/valid/test = %zu/%zu/%zu\n",
              d.dataset.Summary().c_str(), d.train.size(), d.valid.size(),
              d.test.size());
  std::printf("env: scale=%.2f epochs=%d dim=%zu threads=%zu simd=%s(x%zu)\n\n",
              env.scale, env.epochs, env.embedding_dim,
              ThreadPool::GlobalThreads(), simd::IsaName(simd::ActiveIsa()),
              simd::IsaLaneWidth(simd::ActiveIsa()));
}

}  // namespace pup::bench
