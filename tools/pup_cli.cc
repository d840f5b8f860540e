// pup_cli — train and evaluate price-aware recommenders from the shell.
//
// Subcommands:
//   generate --out-dir DIR [--preset yelp|beibei|amazon] [--scale F]
//            [--seed N]
//       Writes items.csv / interactions.csv for a synthetic world.
//
//   train    --items FILE --interactions FILE
//            [--model pup|pup-|bpr-mf|fm|deepfm|gc-mc|ngcf|itempop|padq]
//            [--levels N] [--quantization uniform|rank] [--kcore N]
//            [--epochs N] [--dim N] [--alpha F] [--l2 F] [--seed N]
//            [--cutoffs 50,100] [--beta F (value-aware rerank)]
//       Runs the full pipeline: quantize → k-core → temporal split →
//       fit on train → report Recall/NDCG on the test split.
//
//   serve    --index FILE [--topk N] [--requests N] [--clients N]
//            [--batch B] [--timeout-us T] [--cache N] [--zipf S] [--seed N]
//            [--quant off|int8|int4] [--rerank R]
//       Loads a frozen serving index and drives it closed-loop with a
//       synthetic Zipfian trace, reporting QPS and latency percentiles.
//       --quant requantizes the loaded index's item table (overriding
//       whatever the file stored); --rerank sets the survivor factor of
//       the quantized fastscan path (docs/quantization.md).
//
// Unknown subcommands and unknown/misspelled flags are rejected with the
// usage message and exit code 2.
//
// Examples:
//   pup_cli generate --out-dir /tmp/world --preset beibei --scale 0.3
//   pup_cli train --items /tmp/world/items.csv
//                 --interactions /tmp/world/interactions.csv --model pup
//                 --export-index /tmp/world/pup.index
//   pup_cli serve --index /tmp/world/pup.index --clients 8
#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "core/pup_model.h"
#include "data/csv.h"
#include "data/kcore.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/value_aware.h"
#include "models/bpr_mf.h"
#include "models/deep_fm.h"
#include "models/fm.h"
#include "models/gc_mc.h"
#include "models/item_pop.h"
#include "models/ngcf.h"
#include "models/padq.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "serve/index.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace {

using namespace pup;

int Usage() {
  std::fprintf(stderr,
               "usage: pup_cli generate --out-dir DIR [--preset P] "
               "[--scale F] [--seed N]\n"
               "       pup_cli train --items F --interactions F "
               "[--model M] [--levels N] [--quantization uniform|rank]\n"
               "                     [--kcore N] [--epochs N] [--dim N] "
               "[--alpha F] [--l2 F] [--beta F] [--cutoffs 50,100]\n"
               "                     [--neg-sampling uniform|popularity|price]"
               " [--neg-alpha F] [--max-neighbors N]\n"
               "                     [--ckpt-dir DIR] [--save-every N] "
               "[--resume PATH] [--export-index PATH]\n"
               "                     [--quant off|int8|int4 (with "
               "--export-index)]\n"
               "       pup_cli serve --index FILE [--topk N] [--requests N] "
               "[--clients N] [--batch B]\n"
               "                     [--timeout-us T] [--cache N] [--zipf S] "
               "[--seed N] [--quant off|int8|int4] [--rerank R]\n"
               "       global: --threads N (default: hardware concurrency; "
               "1 = exact serial)\n"
               "               --simd=auto|off|avx2 kernel "
               "backend (default: auto; off = scalar golden path)\n"
               "               --check-numerics[=0|1] NaN/Inf tape scan "
               "each step (default: on in Debug)\n"
               "               --metrics-out PATH dump the metrics "
               "registry as JSON at exit (- = table on stderr)\n"
               "               --trace-out PATH write a chrome://tracing "
               "event trace at exit\n"
               "       checkpoints: --save-every N snapshots DIR every N "
               "epochs; --resume replays\n"
               "       the run bitwise-identically from the newest valid "
               "snapshot (see docs/checkpointing.md)\n"
               "       sampling: --neg-sampling picks the negative "
               "distribution (--neg-alpha its exponent);\n"
               "       --max-neighbors N caps per-node graph fan-in by "
               "weighted sampling (see docs/sampling.md)\n");
  return 2;
}

// Hard error on provided-but-never-queried flags: a typo like
// --epohcs would otherwise silently train with the default. Call after
// every legitimate flag of the subcommand has been queried.
int RejectUnknownFlags(const Flags& flags) {
  const std::vector<std::string> unused = flags.UnusedFlags();
  if (unused.empty()) return 0;
  for (const std::string& flag : unused) {
    std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
  }
  return Usage();
}

int RunGenerate(const Flags& flags) {
  std::string out_dir = flags.GetString("out-dir", "");
  std::string preset = flags.GetString("preset", "beibei");
  double scale = flags.GetDouble("scale", 1.0);
  int64_t seed_flag = flags.GetInt("seed", -1);
  if (int rc = RejectUnknownFlags(flags); rc != 0) return rc;
  if (out_dir.empty()) return Usage();
  data::SyntheticConfig config;
  if (preset == "yelp") {
    config = data::SyntheticConfig::YelpLike();
  } else if (preset == "beibei") {
    config = data::SyntheticConfig::BeibeiLike();
  } else if (preset == "amazon") {
    config = data::SyntheticConfig::AmazonLike();
  } else {
    std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
    return 2;
  }
  config = config.Scaled(scale);
  if (seed_flag >= 0) config.seed = static_cast<uint64_t>(seed_flag);

  data::Dataset ds = data::GenerateSynthetic(config);
  Status st = data::SaveCsv(ds, out_dir + "/items.csv",
                            out_dir + "/interactions.csv");
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s/{items,interactions}.csv  (%s)\n", out_dir.c_str(),
              ds.Summary().c_str());
  return 0;
}

// The model `name` configured from `flags`; null (with the reason on
// stderr) for an unknown name or an invalid flag.
std::unique_ptr<models::Recommender> MakeModel(const std::string& name,
                                               const Flags& flags) {
  train::TrainOptions t;
  t.epochs = static_cast<int>(flags.GetInt("epochs", 40));
  t.l2_reg = static_cast<float>(flags.GetDouble("l2", t.l2_reg));
  t.seed = static_cast<uint64_t>(flags.GetInt("seed", t.seed));
  Result<train::CheckpointOptions> checkpoint =
      train::CheckpointOptionsFromFlags(flags);
  if (!checkpoint.ok()) {
    std::fprintf(stderr, "%s\n", checkpoint.status().ToString().c_str());
    return nullptr;
  }
  t.checkpoint = *checkpoint;
  train::ApplyCheckNumericsFlag(flags, &t);
  if (Status st = train::ApplyNegSamplingFlags(flags, &t); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return nullptr;
  }
  size_t dim = static_cast<size_t>(flags.GetInt("dim", 64));
  // Per-node fan-in cap for the graph models; scorer-only models query
  // (and ignore) it so a provided flag never trips the unknown-flag gate.
  Result<size_t> max_neighbors = train::MaxNeighborsFromFlags(flags);
  if (!max_neighbors.ok()) {
    std::fprintf(stderr, "%s\n", max_neighbors.status().ToString().c_str());
    return nullptr;
  }

  if (name == "itempop") return std::make_unique<models::ItemPop>();
  if (name == "bpr-mf") {
    models::BprMfConfig c;
    c.embedding_dim = dim;
    c.train = t;
    return std::make_unique<models::BprMf>(c);
  }
  if (name == "fm") {
    models::FmConfig c;
    c.embedding_dim = dim;
    c.train = t;
    return std::make_unique<models::Fm>(c);
  }
  if (name == "deepfm") {
    models::DeepFmConfig c;
    c.embedding_dim = dim;
    c.train = t;
    return std::make_unique<models::DeepFm>(c);
  }
  if (name == "gc-mc") {
    models::GcMcConfig c;
    c.embedding_dim = dim;
    c.max_neighbors = *max_neighbors;
    c.train = t;
    return std::make_unique<models::GcMc>(c);
  }
  if (name == "ngcf") {
    models::NgcfConfig c;
    c.embedding_dim = dim;
    c.max_neighbors = *max_neighbors;
    c.train = t;
    return std::make_unique<models::Ngcf>(c);
  }
  if (name == "padq") {
    models::PadqConfig c;
    c.embedding_dim = dim;
    c.epochs = t.epochs;
    return std::make_unique<models::PaDQ>(c);
  }
  if (name == "pup" || name == "pup-") {
    core::PupConfig c = name == "pup" ? core::PupConfig::Full()
                                      : core::PupConfig::Minus();
    c.embedding_dim = dim;
    if (c.two_branch) c.category_branch_dim = dim / 8;
    c.alpha = static_cast<float>(flags.GetDouble("alpha", c.alpha));
    c.max_neighbors = *max_neighbors;
    c.train = t;
    return std::make_unique<core::Pup>(c);
  }
  std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
  return nullptr;
}

std::vector<int> ParseCutoffs(const std::string& spec) {
  std::vector<int> cutoffs;
  std::istringstream in(spec);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    int v = std::atoi(tok.c_str());
    if (v > 0) cutoffs.push_back(v);
  }
  return cutoffs.empty() ? std::vector<int>{50, 100} : cutoffs;
}

int RunTrain(const Flags& flags) {
  std::string items = flags.GetString("items", "");
  std::string interactions = flags.GetString("interactions", "");
  if (items.empty() || interactions.empty()) return Usage();

  auto loaded = data::LoadCsv(items, interactions);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  data::Dataset ds = std::move(loaded).value();

  auto scheme = flags.GetString("quantization", "uniform") == "rank"
                    ? data::QuantizationScheme::kRank
                    : data::QuantizationScheme::kUniform;
  Status st = data::QuantizeDataset(
      &ds, static_cast<size_t>(flags.GetInt("levels", 10)), scheme);
  if (!st.ok()) {
    std::fprintf(stderr, "quantization failed: %s\n", st.ToString().c_str());
    return 1;
  }
  ds = data::KCoreFilter(ds, static_cast<size_t>(flags.GetInt("kcore", 5)));
  std::printf("dataset after preprocessing: %s\n", ds.Summary().c_str());

  data::DataSplit split = data::TemporalSplit(ds);
  std::string model_name = flags.GetString("model", "pup");
  auto model = MakeModel(model_name, flags);
  if (!model) return 2;

  // Query the remaining train flags before the unknown-flag gate so a
  // typo'd flag is the only thing left unqueried.
  auto cutoffs = ParseCutoffs(flags.GetString("cutoffs", "50,100"));
  double beta = flags.GetDouble("beta", 0.0);
  std::string export_index = flags.GetString("export-index", "");
  std::string quant_name = flags.GetString("quant", "off");
  if (int rc = RejectUnknownFlags(flags); rc != 0) return rc;
  auto quant = la::QuantModeFromString(quant_name);
  if (!quant.ok()) {
    std::fprintf(stderr, "bad --quant: %s\n",
                 quant.status().ToString().c_str());
    return 2;
  }
  const la::QuantMode quant_mode = quant.value();

  std::printf("training %s on %zu interactions...\n",
              model->name().c_str(), split.train.size());
  model->Fit(ds, split.train);

  if (!export_index.empty()) {
    const models::DotScorer* frozen = model->ExportScorer();
    if (frozen == nullptr) {
      std::fprintf(stderr,
                   "model '%s' has no folded dot-product state to freeze "
                   "into a serving index\n",
                   model->name().c_str());
      return 1;
    }
    serve::ServingIndex index =
        serve::ServingIndex::Freeze(*frozen, ds, model->name());
    if (quant_mode != la::QuantMode::kOff) {
      auto quantized = index.WithQuant(quant_mode);
      if (!quantized.ok()) {
        std::fprintf(stderr, "index quantization failed: %s\n",
                     quantized.status().ToString().c_str());
        return 1;
      }
      index = std::move(quantized).value();
    }
    Status save = index.Save(export_index);
    if (!save.ok()) {
      std::fprintf(stderr, "index export failed: %s\n",
                   save.ToString().c_str());
      return 1;
    }
    std::printf("wrote serving index %s (model=%s users=%zu items=%zu "
                "dim=%zu quant=%s)\n",
                export_index.c_str(), index.model_name().c_str(),
                index.num_users(), index.num_items(), index.dim(),
                la::QuantModeName(index.quant_mode()));
  }

  auto train_items = data::BuildUserItems(ds.num_users, split.train);
  auto valid_items = data::BuildUserItems(ds.num_users, split.valid);
  std::vector<std::vector<uint32_t>> exclude(ds.num_users);
  for (size_t u = 0; u < ds.num_users; ++u) {
    exclude[u] = train_items[u];
    exclude[u].insert(exclude[u].end(), valid_items[u].begin(),
                      valid_items[u].end());
    std::sort(exclude[u].begin(), exclude[u].end());
  }
  auto test_items = data::BuildUserItems(ds.num_users, split.test);

  const eval::Scorer* scorer = model.get();
  std::unique_ptr<eval::ValueAwareScorer> value_aware;
  if (beta != 0.0) {
    value_aware = std::make_unique<eval::ValueAwareScorer>(
        *model, ds.item_price, static_cast<float>(beta));
    scorer = value_aware.get();
    std::printf("value-aware rerank enabled (beta=%.2f)\n", beta);
  }

  auto result = eval::EvaluateRanking(*scorer, ds.num_users, ds.num_items,
                                      exclude, test_items, cutoffs);
  TextTable table({"metric", "value"});
  for (int k : cutoffs) {
    table.AddRow({"Recall@" + std::to_string(k),
                  FormatFixed(result.At(k).recall, 4)});
    table.AddRow({"NDCG@" + std::to_string(k),
                  FormatFixed(result.At(k).ndcg, 4)});
  }
  if (beta != 0.0) {
    double revenue = eval::RevenueAtK(*scorer, ds.num_users, ds.num_items,
                                      exclude, test_items, ds.item_price,
                                      cutoffs[0]);
    table.AddRow({"Revenue@" + std::to_string(cutoffs[0]),
                  FormatFixed(revenue, 2)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int RunServe(const Flags& flags) {
  std::string index_path = flags.GetString("index", "");
  uint32_t topk = static_cast<uint32_t>(flags.GetInt("topk", 10));
  size_t num_requests = static_cast<size_t>(flags.GetInt("requests", 20000));
  int clients = static_cast<int>(flags.GetInt("clients", 4));
  serve::ServerOptions opt;
  opt.max_batch = static_cast<size_t>(flags.GetInt("batch", 32));
  opt.batch_timeout_us =
      static_cast<uint64_t>(flags.GetInt("timeout-us", 100));
  opt.cache_capacity = static_cast<size_t>(flags.GetInt("cache", 4096));
  opt.max_k = std::max<size_t>(topk, 1);
  opt.rerank_factor =
      static_cast<size_t>(std::max<int64_t>(flags.GetInt("rerank", 4), 1));
  double zipf = flags.GetDouble("zipf", 1.1);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  // Empty = serve whatever quantization the index file stored.
  std::string quant_name = flags.GetString("quant", "");
  if (int rc = RejectUnknownFlags(flags); rc != 0) return rc;
  if (index_path.empty() || topk == 0 || clients < 1) return Usage();

  auto loaded = serve::ServingIndex::Load(index_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "index load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  serve::ServingIndex index_val = std::move(loaded).value();
  if (!quant_name.empty()) {
    auto quant = la::QuantModeFromString(quant_name);
    if (!quant.ok()) {
      std::fprintf(stderr, "bad --quant: %s\n",
                   quant.status().ToString().c_str());
      return 2;
    }
    auto requantized = index_val.WithQuant(quant.value());
    if (!requantized.ok()) {
      std::fprintf(stderr, "index requantization failed: %s\n",
                   requantized.status().ToString().c_str());
      return 1;
    }
    index_val = std::move(requantized).value();
  }
  auto index =
      std::make_shared<const serve::ServingIndex>(std::move(index_val));
  std::printf("loaded index: model=%s users=%zu items=%zu dim=%zu quant=%s\n",
              index->model_name().c_str(), index->num_users(),
              index->num_items(), index->dim(),
              la::QuantModeName(index->quant_mode()));

  serve::TraceConfig tc;
  tc.num_events = num_requests;
  tc.num_users = index->num_users();
  tc.num_items = index->num_items();
  tc.zipf_s = zipf;
  tc.seed = seed;
  serve::Trace trace = serve::GenerateTrace(tc);

  serve::Server server(index, opt);
  obs::Registry& reg = obs::Registry::Global();
  obs::Histogram* latency = reg.GetTimer("serve/cli/latency");
  std::atomic<size_t> next{0};
  const uint64_t t0 = obs::NowNanos();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&] {
      serve::RequestContext ctx(server);
      serve::Reply reply;
      reply.Reserve(opt.max_k);
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= trace.events.size()) break;
        const serve::TraceEvent& ev = trace.events[i];
        serve::Request req;
        req.user = ev.user;
        req.k = topk;
        req.scenario = ev.scenario;
        if (ev.scenario == serve::Scenario::kRerank) {
          req.candidates = &trace.rerank_pools[ev.pool];
        }
        const uint64_t start = obs::NowNanos();
        server.Rank(req, &ctx, &reply);
        latency->Observe(obs::NowNanos() - start);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double secs =
      static_cast<double>(obs::NowNanos() - t0) / 1e9;

  const uint64_t hits = reg.GetCounter("serve/cache_hit")->Get();
  const uint64_t misses = reg.GetCounter("serve/cache_miss")->Get();
  const uint64_t batches = reg.GetCounter("serve/batches")->Get();
  const uint64_t batched = reg.GetHistogram("serve/batch_occupancy")->Sum();
  TextTable table({"metric", "value"});
  table.AddRow({"requests", std::to_string(trace.events.size())});
  table.AddRow({"clients", std::to_string(clients)});
  table.AddRow(
      {"qps",
       FormatFixed(static_cast<double>(trace.events.size()) / secs, 0)});
  table.AddRow({"p50_us", FormatFixed(latency->Percentile(50) / 1e3, 1)});
  table.AddRow({"p95_us", FormatFixed(latency->Percentile(95) / 1e3, 1)});
  table.AddRow({"p99_us", FormatFixed(latency->Percentile(99) / 1e3, 1)});
  table.AddRow(
      {"batch_occupancy",
       FormatFixed(batches > 0 ? static_cast<double>(batched) /
                                     static_cast<double>(batches)
                               : 0.0,
                   2)});
  table.AddRow(
      {"cache_hit_rate",
       FormatFixed(hits + misses > 0
                       ? static_cast<double>(hits) /
                             static_cast<double>(hits + misses)
                       : 0.0,
                   3)});
  std::printf("%s", table.ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Flags flags = Flags::Parse(argc, argv);
  ApplyThreadsFlag(flags);
  ApplySimdFlag(flags);
  // Dumps the metrics registry / chrome trace when main returns.
  obs::ScopedExport obs_export(flags.GetString("metrics-out", ""),
                               flags.GetString("trace-out", ""));
  if (flags.positional().empty()) return Usage();
  const std::string& command = flags.positional()[0];
  if (command == "generate") return RunGenerate(flags);
  if (command == "train") return RunTrain(flags);
  if (command == "serve") return RunServe(flags);
  std::fprintf(stderr, "unknown subcommand '%s'\n", command.c_str());
  return Usage();
}
