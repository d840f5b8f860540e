// Tests for pup::serve — the frozen-index serving engine.
//
// The central property is the determinism contract of docs/serving.md:
// a served top-K list is bitwise-identical to the offline eval ranking
// of the same index, and of the fitted model it was frozen from, at
// every (SIMD backend, client thread count, batch schedule, cache state)
// combination. The reference rankings here are an independent
// reimplementation (full std::sort under the library tie-break rule), so
// the parity tests cross-check the serving path and eval::TopKSelector
// against each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/pup_model.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "la/matrix.h"
#include "models/bpr_mf.h"
#include "models/scoring.h"
#include "obs/registry.h"
#include "serve/cache.h"
#include "serve/index.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace pup::serve {
namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

data::Dataset SmallDataset(uint64_t seed = 7, double scale = 0.1,
                           size_t interactions = 4000) {
  data::SyntheticConfig config =
      data::SyntheticConfig::YelpLike().Scaled(scale);
  config.num_interactions = interactions;
  config.seed = seed;
  data::Dataset ds = data::GenerateSynthetic(config);
  EXPECT_TRUE(
      data::QuantizeDataset(&ds, 4, data::QuantizationScheme::kUniform).ok());
  return ds;
}

// A synthetic trained model: Gaussian embeddings at a dim (24 by
// default) that is neither a multiple of 16 (exercises the padded tail)
// nor below the vector width (exercises the full-lane path).
models::DotScorer MakeScorer(const data::Dataset& ds, uint64_t seed = 3,
                             size_t dim = 24) {
  Rng rng(seed);
  la::Matrix users = la::Matrix::Gaussian(ds.num_users, dim, 0.5f, &rng);
  la::Matrix items = la::Matrix::Gaussian(ds.num_items, dim, 0.5f, &rng);
  std::vector<float> bias(ds.num_items);
  for (float& b : bias) b = rng.NextFloat() - 0.5f;
  return models::DotScorer(std::move(users), std::move(items),
                           std::move(bias));
}

std::shared_ptr<const ServingIndex> MakeIndex(const data::Dataset& ds,
                                              size_t dim = 24) {
  return std::make_shared<const ServingIndex>(
      ServingIndex::Freeze(MakeScorer(ds, 3, dim), ds, "test-model"));
}

std::shared_ptr<const ServingIndex> Int8Copy(const ServingIndex& index) {
  Result<ServingIndex> quantized = index.WithQuant(la::QuantMode::kInt8);
  EXPECT_TRUE(quantized.ok()) << quantized.status().ToString();
  return std::make_shared<const ServingIndex>(std::move(quantized).value());
}

struct Ranked {
  std::vector<uint32_t> items;
  std::vector<float> scores;

  bool operator==(const Ranked& other) const {
    return items == other.items && scores == other.scores;
  }
};

// Independent reference: full sort of (score desc, id asc) — the
// library-wide tie-break rule — truncated to k, masked entries dropped.
Ranked ReferenceRank(std::vector<float> scores, uint32_t k,
                     const std::vector<uint32_t>* exclude) {
  if (exclude != nullptr) {
    for (uint32_t id : *exclude) scores[id] = kNegInf;
  }
  std::vector<uint32_t> ids(scores.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  std::sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  Ranked out;
  for (uint32_t id : ids) {
    if (out.items.size() >= k || scores[id] == kNegInf) break;
    out.items.push_back(id);
    out.scores.push_back(scores[id]);
  }
  return out;
}

// Reference full-catalog ranking through the offline eval scoring path
// (IndexScorer == the scorer the eval harness would consume).
Ranked EvalReference(const ServingIndex& index, uint32_t user, uint32_t k,
                     const std::vector<uint32_t>* exclude) {
  std::vector<float> scores;
  if (user < index.num_users()) {
    IndexScorer scorer(&index);
    scorer.ScoreItems(user, &scores);
  } else {
    scores = index.cold_start_prior();
  }
  return ReferenceRank(std::move(scores), k, exclude);
}

std::string TempPath(const char* name) {
  const char* base = ::getenv("TMPDIR");
  return std::string(base != nullptr ? base : "/tmp") + "/" + name + "_" +
         std::to_string(::getpid());
}

// ---------------------------------------------------------------------------
// ServingIndex: freeze, save/load, torn-file rejection
// ---------------------------------------------------------------------------

TEST(ServingIndexTest, FreezeCopiesTablesAndBuildsPrior) {
  data::Dataset ds = SmallDataset();
  models::DotScorer scorer = MakeScorer(ds);
  ServingIndex index = ServingIndex::Freeze(scorer, ds, "m");

  EXPECT_EQ(index.num_users(), ds.num_users);
  EXPECT_EQ(index.num_items(), ds.num_items);
  EXPECT_EQ(index.dim(), 24u);
  EXPECT_EQ(index.model_name(), "m");
  ASSERT_NE(index.bias(), nullptr);
  for (size_t u = 0; u < ds.num_users; ++u) {
    for (size_t c = 0; c < index.dim(); ++c) {
      ASSERT_EQ(index.user_vecs()(u, c), scorer.user_vecs()(u, c));
    }
  }
  ASSERT_EQ(index.cold_start_prior().size(), ds.num_items);
  // The prior is a popularity signal: every value finite and
  // non-negative, and not all equal (the synthetic catalog is skewed).
  float lo = index.cold_start_prior()[0];
  float hi = lo;
  for (float p : index.cold_start_prior()) {
    ASSERT_GE(p, 0.0f);
    ASSERT_TRUE(std::isfinite(p));
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  EXPECT_GT(hi, lo);
}

// A dataset whose price levels are missing (or whose level table is the
// wrong length) must not silently degrade the cold-start prior: Freeze
// falls back to popularity-only and says so via the
// `serve/prior_level_fallback` counter. Regression test for the silent
// fallback in BuildPrior.
TEST(ServingIndexTest, FreezeCountsPriceLevelFallback) {
  data::Dataset ds = SmallDataset();
  obs::Counter* fallback =
      obs::Registry::Global().GetCounter("serve/prior_level_fallback");

  // Well-formed levels: no fallback.
  const uint64_t before_ok = fallback->Get();
  ServingIndex with_levels = ServingIndex::Freeze(MakeScorer(ds), ds, "ok");
  EXPECT_EQ(fallback->Get(), before_ok);

  // Truncated level table (e.g. a dataset quantized before items were
  // appended): the prior must still be valid, but the fallback counts.
  data::Dataset broken = SmallDataset();
  broken.item_price_level.resize(broken.num_items / 2);
  const uint64_t before_broken = fallback->Get();
  ServingIndex no_levels =
      ServingIndex::Freeze(MakeScorer(broken), broken, "b");
  EXPECT_EQ(fallback->Get(), before_broken + 1);
  ASSERT_EQ(no_levels.cold_start_prior().size(), broken.num_items);
  for (float p : no_levels.cold_start_prior()) {
    ASSERT_GE(p, 0.0f);
    ASSERT_TRUE(std::isfinite(p));
  }
}

TEST(ServingIndexTest, SaveLoadRoundTripsBitwise) {
  data::Dataset ds = SmallDataset();
  ServingIndex index = ServingIndex::Freeze(MakeScorer(ds), ds, "roundtrip");
  const std::string path = TempPath("serve_index_roundtrip");
  ASSERT_TRUE(index.Save(path).ok());

  auto loaded = ServingIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ServingIndex& got = loaded.value();
  EXPECT_EQ(got.model_name(), "roundtrip");
  ASSERT_EQ(got.num_users(), index.num_users());
  ASSERT_EQ(got.num_items(), index.num_items());
  ASSERT_EQ(got.dim(), index.dim());
  for (size_t u = 0; u < got.num_users(); ++u) {
    for (size_t c = 0; c < got.dim(); ++c) {
      ASSERT_EQ(got.user_vecs()(u, c), index.user_vecs()(u, c));
    }
  }
  for (size_t i = 0; i < got.num_items(); ++i) {
    for (size_t c = 0; c < got.dim(); ++c) {
      ASSERT_EQ(got.item_vecs()(i, c), index.item_vecs()(i, c));
    }
    ASSERT_EQ(got.bias()[i], index.bias()[i]);
    ASSERT_EQ(got.cold_start_prior()[i], index.cold_start_prior()[i]);
  }
  std::remove(path.c_str());
}

TEST(ServingIndexTest, TornOrCorruptFileIsRejectedWithoutAnIndex) {
  data::Dataset ds = SmallDataset();
  ServingIndex index = ServingIndex::Freeze(MakeScorer(ds), ds, "torn");
  const std::string path = TempPath("serve_index_torn");
  ASSERT_TRUE(index.Save(path).ok());

  // Missing file.
  EXPECT_FALSE(ServingIndex::Load(path + ".does-not-exist").ok());

  // Torn write: truncate to 60% of the original length.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string torn = TempPath("serve_index_torn_cut");
  std::ofstream(torn, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size() * 3 / 5));
  EXPECT_FALSE(ServingIndex::Load(torn).ok());

  // Bit flip in the payload region: the section CRC must catch it.
  std::string flipped_bytes = bytes;
  flipped_bytes[flipped_bytes.size() / 2] ^= 0x40;
  const std::string flipped = TempPath("serve_index_torn_flip");
  std::ofstream(flipped, std::ios::binary)
      .write(flipped_bytes.data(),
             static_cast<std::streamsize>(flipped_bytes.size()));
  EXPECT_FALSE(ServingIndex::Load(flipped).ok());

  std::remove(path.c_str());
  std::remove(torn.c_str());
  std::remove(flipped.c_str());
}

// ---------------------------------------------------------------------------
// Serve-vs-eval bitwise parity
// ---------------------------------------------------------------------------

// Drives `client_threads` concurrent clients through a server and checks
// every reply bitwise against `refs`. Each client serves every sampled
// user `rounds` times (>= 2 rounds exercises cache hits when enabled).
// Returns the number of mismatched replies.
size_t RunParityClients(Server* server, const std::vector<Ranked>& refs,
                        const std::vector<std::vector<uint32_t>>& exclude,
                        uint32_t k, int client_threads, int rounds) {
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(client_threads));
  for (int t = 0; t < client_threads; ++t) {
    clients.emplace_back([&] {
      RequestContext ctx(*server);
      Reply reply;
      reply.Reserve(server->options().max_k);
      for (int round = 0; round < rounds; ++round) {
        for (size_t u = 0; u < refs.size(); ++u) {
          Request req;
          req.user = static_cast<uint32_t>(u);
          req.k = k;
          req.exclude = &exclude[u];
          server->Rank(req, &ctx, &reply);
          if (reply.items != refs[u].items ||
              reply.scores != refs[u].scores) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  return mismatches.load();
}

TEST(ServeParityTest, ServedTopKMatchesOfflineEvalBitwise) {
  data::Dataset ds = SmallDataset();
  auto index = MakeIndex(ds);
  const std::vector<std::vector<uint32_t>> exclude = ds.UserItemLists();
  const uint32_t k = 10;
  const size_t sample = std::min<size_t>(index->num_users(), 64);

  struct Config {
    int client_threads;
    size_t max_batch;
    size_t cache;
  };
  const Config configs[] = {
      {1, 1, 0}, {1, 32, 128}, {4, 1, 0}, {4, 32, 0}, {4, 32, 128}};

  for (simd::Isa isa : {simd::Isa::kOff, simd::Isa::kAvx2}) {
    if (!simd::IsaSupported(isa)) continue;
    simd::SetActiveIsa(isa);
    // Per-backend reference: lane-reduced kernels are bitwise-stable
    // within a backend, not across lane widths.
    std::vector<Ranked> refs(sample);
    for (size_t u = 0; u < sample; ++u) {
      refs[u] = EvalReference(*index, static_cast<uint32_t>(u), k,
                              &exclude[u]);
    }
    for (const Config& cfg : configs) {
      ServerOptions opt;
      opt.max_batch = cfg.max_batch;
      opt.batch_timeout_us = 50;
      opt.cache_capacity = cfg.cache;
      opt.max_k = k;
      Server server(index, opt);
      const size_t bad =
          RunParityClients(&server, refs, exclude, k, cfg.client_threads, 2);
      EXPECT_EQ(bad, 0u) << "isa=" << simd::IsaName(isa)
                         << " clients=" << cfg.client_threads
                         << " batch=" << cfg.max_batch
                         << " cache=" << cfg.cache;
    }
  }
  simd::SetActiveIsa(simd::DetectBestIsa());
}

// Served ≡ eval for a fitted model itself, not only for an IndexScorer
// over its frozen copy: the model's own ScoreItems (what the eval harness
// ranks) and the frozen index score through the same kernel, so each
// score is bitwise-equal on every backend, and the served top-K is the
// reference ranking of the model's own scores. PUP folds an item bias
// into its scorer; BPR-MF has none.
TEST(ServeParityTest, FittedModelScoresEqualFrozenIndexScores) {
  data::Dataset ds = SmallDataset();
  const std::vector<std::vector<uint32_t>> exclude = ds.UserItemLists();
  const uint32_t k = 10;

  core::PupConfig pup_config = core::PupConfig::Full();
  pup_config.train.epochs = 2;
  core::Pup pup(pup_config);
  models::BprMfConfig mf_config;
  mf_config.train.epochs = 2;
  models::BprMf mf(mf_config);

  for (models::Recommender* model :
       std::initializer_list<models::Recommender*>{&pup, &mf}) {
    model->Fit(ds, ds.interactions);
    const models::DotScorer* folded = model->ExportScorer();
    ASSERT_NE(folded, nullptr) << model->name();
    EXPECT_EQ(folded->item_bias().empty(), model == &mf) << model->name();
    auto index = std::make_shared<const ServingIndex>(
        ServingIndex::Freeze(*folded, ds, model->name()));
    IndexScorer frozen(index.get());

    for (simd::Isa isa : {simd::Isa::kOff, simd::Isa::kAvx2}) {
      if (!simd::IsaSupported(isa)) continue;
      simd::SetActiveIsa(isa);
      std::vector<Ranked> refs(ds.num_users);
      std::vector<float> own, served;
      size_t differing = 0;
      for (uint32_t u = 0; u < ds.num_users; ++u) {
        model->ScoreItems(u, &own);
        frozen.ScoreItems(u, &served);
        ASSERT_EQ(own.size(), served.size());
        for (size_t i = 0; i < own.size(); ++i) {
          differing += std::bit_cast<uint32_t>(own[i]) !=
                       std::bit_cast<uint32_t>(served[i]);
        }
        refs[u] = ReferenceRank(own, k, &exclude[u]);
      }
      EXPECT_EQ(differing, 0u)
          << model->name() << " isa=" << simd::IsaName(isa) << ": "
          << differing << " of " << ds.num_users * ds.num_items
          << " scores differ";

      ServerOptions opt;
      opt.max_batch = 8;
      opt.batch_timeout_us = 50;
      opt.max_k = k;
      Server server(index, opt);
      EXPECT_EQ(RunParityClients(&server, refs, exclude, k, 2, 1), 0u)
          << model->name() << " isa=" << simd::IsaName(isa);
    }
  }
  simd::SetActiveIsa(simd::DetectBestIsa());
}

TEST(ServeParityTest, KernelThreadCountDoesNotChangeServedRankings) {
  data::Dataset ds = SmallDataset();
  auto index = MakeIndex(ds);
  const std::vector<std::vector<uint32_t>> exclude = ds.UserItemLists();
  const uint32_t k = 10;
  const size_t sample = std::min<size_t>(index->num_users(), 32);

  auto serve_all = [&] {
    ServerOptions opt;
    opt.max_batch = 1;
    opt.max_k = k;
    Server server(index, opt);
    RequestContext ctx(server);
    Reply reply;
    reply.Reserve(k);
    std::vector<Ranked> out(sample);
    for (size_t u = 0; u < sample; ++u) {
      Request req;
      req.user = static_cast<uint32_t>(u);
      req.k = k;
      req.exclude = &exclude[u];
      server.Rank(req, &ctx, &reply);
      out[u] = Ranked{reply.items, reply.scores};
    }
    return out;
  };

  ThreadPool::SetGlobalThreads(1);
  const std::vector<Ranked> serial = serve_all();
  ThreadPool::SetGlobalThreads(4);
  const std::vector<Ranked> parallel = serve_all();
  ThreadPool::SetGlobalThreads(0);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t u = 0; u < serial.size(); ++u) {
    EXPECT_TRUE(serial[u] == parallel[u]) << "user " << u;
  }
}

TEST(ServeParityTest, RerankIsTheFullRankingRestrictedToThePool) {
  data::Dataset ds = SmallDataset();
  auto index = MakeIndex(ds);
  const uint32_t k = 8;

  TraceConfig tc;
  tc.num_users = index->num_users();
  tc.num_items = index->num_items();
  tc.num_events = 1;
  Trace trace = GenerateTrace(tc);
  ASSERT_FALSE(trace.rerank_pools.empty());

  ServerOptions opt;
  opt.max_batch = 4;
  opt.max_k = k;
  Server server(index, opt);
  RequestContext ctx(server);
  Reply reply;
  reply.Reserve(k);
  IndexScorer scorer(index.get());
  std::vector<float> full;
  for (uint32_t user : {0u, 3u, 17u}) {
    for (const std::vector<uint32_t>& pool : trace.rerank_pools) {
      Request req;
      req.user = user;
      req.k = k;
      req.scenario = Scenario::kRerank;
      req.candidates = &pool;
      server.Rank(req, &ctx, &reply);
      EXPECT_EQ(reply.served, Scenario::kRerank);

      // Reference: gather the candidates' entries of the full scoring
      // pass (bitwise-identical kernel path), rank by (score desc, id
      // asc).
      scorer.ScoreItems(user, &full);
      std::vector<float> masked(full.size(), kNegInf);
      for (uint32_t id : pool) masked[id] = full[id];
      const Ranked ref = ReferenceRank(std::move(masked), k, nullptr);
      EXPECT_EQ(reply.items, ref.items);
      EXPECT_EQ(reply.scores, ref.scores);
    }
  }
}

// ---------------------------------------------------------------------------
// Cold start
// ---------------------------------------------------------------------------

TEST(ServeBehaviorTest, UnknownUserFallsBackToColdStartDeterministically) {
  data::Dataset ds = SmallDataset();
  auto index = MakeIndex(ds);
  const uint32_t k = 10;
  ServerOptions opt;
  opt.max_batch = 1;
  opt.max_k = k;
  Server server(index, opt);
  RequestContext ctx(server);
  Reply first;
  Reply second;
  first.Reserve(k);
  second.Reserve(k);

  Request req;
  req.user = static_cast<uint32_t>(index->num_users()) + 123;
  req.k = k;
  req.scenario = Scenario::kFullRanking;
  server.Rank(req, &ctx, &first);
  EXPECT_EQ(first.served, Scenario::kColdStart);
  server.Rank(req, &ctx, &second);
  EXPECT_EQ(first.items, second.items);
  EXPECT_EQ(first.scores, second.scores);

  const Ranked ref = ReferenceRank(index->cold_start_prior(), k, nullptr);
  EXPECT_EQ(first.items, ref.items);
  EXPECT_EQ(first.scores, ref.scores);
}

// ---------------------------------------------------------------------------
// Malformed requests
// ---------------------------------------------------------------------------

Request MakeRequest(uint32_t user, uint32_t k, Scenario scenario,
                    const std::vector<uint32_t>* candidates,
                    const std::vector<uint32_t>* exclude) {
  Request req;
  req.user = user;
  req.k = k;
  req.scenario = scenario;
  req.candidates = candidates;
  req.exclude = exclude;
  return req;
}

// Every malformed kind gets InvalidArgument and no items instead of
// aborting the process, and the valid requests that share its batches
// are served bitwise as if it were absent — on the f32 path and on the
// quantized one.
TEST(ServeBehaviorTest, MalformedRequestsGetInvalidArgumentAndSpareTheirBatch) {
  data::Dataset ds = SmallDataset();
  auto f32 = MakeIndex(ds);
  Result<ServingIndex> quantized = f32->WithQuant(la::QuantMode::kInt8);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
  auto int8 =
      std::make_shared<const ServingIndex>(std::move(quantized).value());
  const uint32_t k = 10;
  const uint32_t n = static_cast<uint32_t>(f32->num_items());
  const uint32_t cold_user = static_cast<uint32_t>(f32->num_users()) + 5;
  const std::vector<std::vector<uint32_t>> exclude = ds.UserItemLists();
  const std::vector<uint32_t> pool = {2, 5, 9, 30, 31};
  const std::vector<uint32_t> ids_out = {1, n};
  const std::vector<uint32_t> pool_out = {2, n};
  const std::vector<uint32_t> pool_unsorted = {5, 2, 9};
  const std::vector<uint32_t> pool_duplicate = {2, 5, 5};
  const std::vector<uint32_t> pool_empty;

  const std::vector<Request> bad = {
      MakeRequest(0, 0, Scenario::kFullRanking, nullptr, nullptr),
      MakeRequest(0, k + 1, Scenario::kFullRanking, nullptr, nullptr),
      MakeRequest(0, k, static_cast<Scenario>(7), nullptr, nullptr),
      MakeRequest(0, k, Scenario::kFullRanking, nullptr, &ids_out),
      MakeRequest(cold_user, k, Scenario::kFullRanking, nullptr, &ids_out),
      MakeRequest(0, k, Scenario::kColdStart, nullptr, &ids_out),
      MakeRequest(0, k, Scenario::kRerank, nullptr, nullptr),
      MakeRequest(0, k, Scenario::kRerank, &pool_empty, nullptr),
      MakeRequest(0, k, Scenario::kRerank, &pool_out, nullptr),
      MakeRequest(0, k, Scenario::kRerank, &pool_unsorted, nullptr),
      MakeRequest(0, k, Scenario::kRerank, &pool_duplicate, nullptr),
  };
  std::vector<Request> good;
  for (uint32_t u = 0; u < 8; ++u) {
    good.push_back(
        MakeRequest(u, k, Scenario::kFullRanking, nullptr, &exclude[u]));
  }
  good.push_back(MakeRequest(3, k, Scenario::kRerank, &pool, nullptr));
  good.push_back(
      MakeRequest(cold_user, k, Scenario::kFullRanking, nullptr, nullptr));
  good.push_back(
      MakeRequest(1, k, Scenario::kColdStart, nullptr, &exclude[1]));
  // Bad and good requests alternate, so every bad one that reaches a
  // batch shares it with a good one.
  std::vector<std::pair<const Request*, size_t>> sequence;
  for (size_t i = 0; i < good.size(); ++i) {
    sequence.emplace_back(&good[i], i);
    if (i < bad.size()) sequence.emplace_back(&bad[i], SIZE_MAX);
  }

  for (const auto& index : {f32, int8}) {
    // References: each good request served alone on its own server.
    ServerOptions alone_opt;
    alone_opt.max_batch = 1;
    alone_opt.max_k = k;
    Server alone(index, alone_opt);
    RequestContext alone_ctx(alone);
    std::vector<Ranked> refs(good.size());
    for (size_t i = 0; i < good.size(); ++i) {
      Reply reply;
      alone.Rank(good[i], &alone_ctx, &reply);
      ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
      refs[i] = {reply.items, reply.scores};
    }
    if (!index->quantized()) {
      // On the f32 path the served-alone rankings are the eval ones.
      for (uint32_t u = 0; u < 8; ++u) {
        EXPECT_EQ(refs[u], EvalReference(*index, u, k, &exclude[u]));
      }
    }

    ServerOptions opt;
    opt.max_batch = 2;
    opt.batch_timeout_us = 10000;  // Two clients: wait for the partner.
    opt.max_k = k;
    Server server(index, opt);
    obs::Registry& reg = obs::Registry::Global();
    const uint64_t batches_before = reg.GetCounter("serve/batches")->Get();
    std::atomic<size_t> wrong{0};
    std::atomic<size_t> batched{0};
    // Both contexts are live before either client sends, so the first
    // leader waits for its partner instead of serving alone.
    std::barrier start(2);
    std::vector<std::thread> clients;
    for (int t = 0; t < 2; ++t) {
      clients.emplace_back([&] {
        RequestContext ctx(server);
        Reply reply;
        reply.Reserve(k);
        start.arrive_and_wait();
        for (int round = 0; round < 3; ++round) {
          for (const auto& [req, ref] : sequence) {
            // The reply still holds the previous ranking; a rejection
            // must clear it.
            server.Rank(*req, &ctx, &reply);
            const bool admitted = req->k >= 1 && req->k <= k &&
                                  static_cast<uint8_t>(req->scenario) <= 2;
            if (admitted) batched.fetch_add(1, std::memory_order_relaxed);
            bool ok = false;
            if (ref == SIZE_MAX) {
              ok = reply.status.code() == StatusCode::kInvalidArgument &&
                   reply.items.empty() && reply.scores.empty();
            } else {
              ok = reply.status.ok() && reply.items == refs[ref].items &&
                   reply.scores == refs[ref].scores;
            }
            if (!ok) wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
    EXPECT_EQ(wrong.load(), 0u) << "quantized=" << index->quantized();
    // Admitted requests shared batches.
    EXPECT_LT(reg.GetCounter("serve/batches")->Get() - batches_before,
              batched.load());
  }

  // A rejected request is never cached, and ids are checked against the
  // snapshot a batch runs on: after a Reload to a smaller catalog, an id
  // that fit the old one is rejected.
  ServerOptions opt;
  opt.max_batch = 1;
  opt.cache_capacity = 16;
  opt.max_k = k;
  Server server(f32, opt);
  RequestContext ctx(server);
  Reply reply;
  reply.Reserve(k);
  server.Rank(bad[3], &ctx, &reply);
  EXPECT_EQ(reply.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.cache()->size(), 0u);

  auto small = MakeIndex(SmallDataset(7, 0.05, 2000));
  const uint32_t small_n = static_cast<uint32_t>(small->num_items());
  ASSERT_LT(small_n, n);
  const std::vector<uint32_t> fits_old_only = {small_n};
  const Request excl =
      MakeRequest(0, k, Scenario::kFullRanking, nullptr, &fits_old_only);
  const Request rerank =
      MakeRequest(0, k, Scenario::kRerank, &fits_old_only, nullptr);
  for (const Request* req : {&excl, &rerank}) {
    server.Rank(*req, &ctx, &reply);
    EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
  }
  server.Reload(small);
  for (const Request* req : {&excl, &rerank}) {
    server.Rank(*req, &ctx, &reply);
    EXPECT_EQ(reply.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(reply.items.empty());
  }
}

// ---------------------------------------------------------------------------
// Hot-user result cache
// ---------------------------------------------------------------------------

TEST(CacheTest, LruEvictsLeastRecentlyUsedAndHitsRefreshRecency) {
  ResultCache cache(2, 10, 4);
  const std::vector<uint32_t> items = {1, 2, 3};
  const std::vector<float> scores = {3.0f, 2.0f, 1.0f};
  std::vector<uint32_t> got_items;
  std::vector<float> got_scores;

  cache.Insert(0, 3, 0, items, scores);
  cache.Insert(1, 3, 0, items, scores);
  EXPECT_EQ(cache.size(), 2u);
  // Touch user 0 so user 1 becomes the LRU entry.
  EXPECT_TRUE(cache.Lookup(0, 3, 0, &got_items, &got_scores));
  EXPECT_EQ(got_items, items);
  EXPECT_EQ(got_scores, scores);
  cache.Insert(2, 3, 0, items, scores);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup(1, 3, 0, &got_items, &got_scores));
  EXPECT_TRUE(cache.Lookup(0, 3, 0, &got_items, &got_scores));
  EXPECT_TRUE(cache.Lookup(2, 3, 0, &got_items, &got_scores));
}

TEST(CacheTest, MismatchedKOrGenerationMissesAndInvalidateDropsAll) {
  ResultCache cache(4, 10, 4);
  const std::vector<uint32_t> items = {5};
  const std::vector<float> scores = {1.5f};
  std::vector<uint32_t> got_items;
  std::vector<float> got_scores;

  cache.Insert(3, 1, 7, items, scores);
  EXPECT_TRUE(cache.Lookup(3, 1, 7, &got_items, &got_scores));
  EXPECT_FALSE(cache.Lookup(3, 2, 7, &got_items, &got_scores));  // Other k.
  EXPECT_FALSE(cache.Lookup(3, 1, 8, &got_items, &got_scores));  // Other gen.
  EXPECT_FALSE(cache.Lookup(4, 1, 7, &got_items, &got_scores));  // Other user.

  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(3, 1, 7, &got_items, &got_scores));
}

// Mixed traffic, one request per trace event: full rankings with the
// user's exclusions, re-rank pools and cold start. The requests borrow
// `trace` and `exclude`.
std::vector<Request> MixedRequests(
    const Trace& trace, const std::vector<std::vector<uint32_t>>& exclude,
    uint32_t k) {
  std::vector<Request> out;
  for (const TraceEvent& ev : trace.events) {
    const std::vector<uint32_t>* pool = nullptr;
    const std::vector<uint32_t>* excl = nullptr;
    if (ev.scenario == Scenario::kRerank) {
      pool = &trace.rerank_pools[ev.pool];
    } else if (ev.user < exclude.size()) {
      excl = &exclude[ev.user];
    }
    out.push_back(MakeRequest(ev.user, k, ev.scenario, pool, excl));
  }
  return out;
}

// Each request's reply from a serial max_batch 1 server over `index`.
std::vector<Ranked> ServeSerially(std::shared_ptr<const ServingIndex> index,
                                  const std::vector<Request>& requests,
                                  uint32_t k) {
  ServerOptions opt;
  opt.max_batch = 1;
  opt.max_k = k;
  Server server(std::move(index), opt);
  RequestContext ctx(server);
  Reply reply;
  reply.Reserve(k);
  std::vector<Ranked> out;
  for (const Request& req : requests) {
    server.Rank(req, &ctx, &reply);
    EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
    out.push_back({reply.items, reply.scores});
  }
  return out;
}

// Four clients send mixed traffic while a fifth thread alternates Reload
// between two snapshots: A, and B with a larger catalog at another dim.
// Every reply must be the one a serial server gives over A or over B —
// a batch never mixes snapshots, and a context built while A was current
// still serves B. On the f32 indexes and on their int8 copies, with the
// cache on and off.
TEST(ServeBehaviorTest, RepliesAcrossConcurrentReloadsMatchOneSnapshot) {
  const data::Dataset ds_a = SmallDataset();
  const data::Dataset ds_b = SmallDataset(11, 0.15, 6000);
  auto a = MakeIndex(ds_a);
  auto b = MakeIndex(ds_b, 40);
  ASSERT_GT(b->num_items(), a->num_items());
  ASSERT_NE(b->dim(), a->dim());
  const uint32_t k = 10;

  // Ids inside both catalogs: users and items below the smaller count.
  TraceConfig tc;
  tc.num_users = std::min(a->num_users(), b->num_users());
  tc.num_items = a->num_items();
  tc.num_events = 120;
  tc.rerank_frac = 0.2;
  tc.cold_frac = 0.1;
  const Trace trace = GenerateTrace(tc);
  const std::vector<std::vector<uint32_t>> exclude = ds_a.UserItemLists();
  std::vector<Request> requests = MixedRequests(trace, exclude, k);
  // And one user neither snapshot knows.
  const uint32_t unknown =
      static_cast<uint32_t>(std::max(a->num_users(), b->num_users())) + 5;
  requests.push_back(
      MakeRequest(unknown, k, Scenario::kFullRanking, nullptr, nullptr));

  using Snapshot = std::shared_ptr<const ServingIndex>;
  const std::pair<Snapshot, Snapshot> pairs[] = {{a, b},
                                                 {Int8Copy(*a), Int8Copy(*b)}};
  for (const auto& [snap_a, snap_b] : pairs) {
    const std::vector<Ranked> ref_a = ServeSerially(snap_a, requests, k);
    const std::vector<Ranked> ref_b = ServeSerially(snap_b, requests, k);
    for (size_t cache : {size_t{0}, size_t{64}}) {
      ServerOptions opt;
      opt.max_batch = 8;
      opt.batch_timeout_us = 200;
      opt.cache_capacity = cache;
      opt.max_k = k;
      Server server(snap_a, opt);
      constexpr int kClients = 4;
      std::vector<std::unique_ptr<RequestContext>> ctxs;
      for (int c = 0; c < kClients; ++c) {
        ctxs.push_back(std::make_unique<RequestContext>(server));
      }
      std::atomic<int> running{kClients};
      std::atomic<size_t> wrong{0};
      std::atomic<size_t> reloads{0};
      std::thread reloader([&] {
        bool to_b = true;
        while (running.load() > 0) {
          server.Reload(to_b ? snap_b : snap_a);
          to_b = !to_b;
          reloads.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
      });
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          Reply reply;
          reply.Reserve(k);
          for (int round = 0; round < 3; ++round) {
            for (size_t j = 0; j < requests.size(); ++j) {
              const size_t i = (j + 31 * static_cast<size_t>(c)) %
                               requests.size();
              server.Rank(requests[i], ctxs[c].get(), &reply);
              const Ranked got{reply.items, reply.scores};
              if (!reply.status.ok() || !(got == ref_a[i] || got == ref_b[i])) {
                wrong.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
          running.fetch_sub(1);
        });
      }
      for (std::thread& t : clients) t.join();
      reloader.join();
      EXPECT_GT(reloads.load(), 1u);
      EXPECT_EQ(wrong.load(), 0u)
          << "quantized=" << snap_a->quantized() << " cache=" << cache;
    }
  }
}

TEST(ServeBehaviorTest, ReloadBumpsGenerationAndInvalidatesCache) {
  data::Dataset ds = SmallDataset();
  auto index = MakeIndex(ds);
  const uint32_t k = 10;
  ServerOptions opt;
  opt.max_batch = 1;
  opt.cache_capacity = 16;
  opt.max_k = k;
  Server server(index, opt);
  RequestContext ctx(server);
  Reply reply;
  reply.Reserve(k);

  Request req;
  req.user = 0;
  req.k = k;
  server.Rank(req, &ctx, &reply);
  EXPECT_FALSE(reply.cache_hit);
  server.Rank(req, &ctx, &reply);
  EXPECT_TRUE(reply.cache_hit);

  const uint64_t gen = server.generation();
  server.Reload(index);
  EXPECT_EQ(server.generation(), gen + 1);
  server.Rank(req, &ctx, &reply);
  EXPECT_FALSE(reply.cache_hit) << "stale entry served after reload";
  server.Rank(req, &ctx, &reply);
  EXPECT_TRUE(reply.cache_hit);
}

// Regression test: ZipfSampler used to underflow `cdf_.size() - 1` on an
// empty user population (n == 0 made the std::min clamp a no-op against
// SIZE_MAX), reading past an empty vector at the first draw. The guard
// now rejects the bad config up front in GenerateTrace, with a matching
// defense-in-depth check in the sampler itself.
TEST(TraceDeathTest, RejectsEmptyUserOrItemPopulation) {
  TraceConfig tc;
  tc.num_users = 0;
  tc.num_items = 10;
  tc.num_events = 1;
  EXPECT_DEATH(GenerateTrace(tc), "Zipf user sampler");
  tc.num_users = 10;
  tc.num_items = 0;
  EXPECT_DEATH(GenerateTrace(tc), "needs num_items > 0");
}

// ---------------------------------------------------------------------------
// Micro-batching
// ---------------------------------------------------------------------------

TEST(ServeBehaviorTest, ConcurrentRequestsCoalesceIntoSharedBatches) {
  data::Dataset ds = SmallDataset();
  auto index = MakeIndex(ds);
  ServerOptions opt;
  opt.max_batch = 8;
  opt.batch_timeout_us = 5000;  // Generous: the test wants coalescing.
  opt.max_k = 10;
  Server server(index, opt);

  obs::Registry& reg = obs::Registry::Global();
  const uint64_t requests_before = reg.GetCounter("serve/requests")->Get();
  const uint64_t batches_before = reg.GetCounter("serve/batches")->Get();

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 50;
  // Every context is live before the first request, so no client starts
  // out alone.
  std::barrier start(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      RequestContext ctx(server);
      Reply reply;
      reply.Reserve(opt.max_k);
      start.arrive_and_wait();
      for (int i = 0; i < kRequestsPerClient; ++i) {
        Request req;
        req.user = static_cast<uint32_t>((t * kRequestsPerClient + i) %
                                         index->num_users());
        req.k = 10;
        server.Rank(req, &ctx, &reply);
      }
    });
  }
  for (std::thread& c : clients) c.join();

  const uint64_t requests =
      reg.GetCounter("serve/requests")->Get() - requests_before;
  const uint64_t batches =
      reg.GetCounter("serve/batches")->Get() - batches_before;
  EXPECT_EQ(requests, static_cast<uint64_t>(kClients * kRequestsPerClient));
  // With 8 concurrent clients and a leader that waits for companions,
  // batches must coalesce: strictly fewer batches than requests.
  EXPECT_LT(batches, requests);
  EXPECT_GE(batches, 1u);
}

// A leader claims its batch as soon as every live RequestContext of its
// server is in it: no other caller exists that could still join. The
// timeout still bounds the wait while a live context stays outside the
// batch, and destroying a context wakes a leader that was waiting for it.
TEST(ServeBehaviorTest, BatchClosesOnceEveryLiveContextHasJoined) {
  data::Dataset ds = SmallDataset();
  auto index = MakeIndex(ds);
  const uint32_t k = 10;
  obs::Counter* batches = obs::Registry::Global().GetCounter("serve/batches");
  using Clock = std::chrono::steady_clock;
  auto make_server = [&](std::chrono::microseconds timeout) {
    ServerOptions opt;
    opt.max_batch = 32;
    opt.batch_timeout_us = static_cast<uint64_t>(timeout.count());
    opt.max_k = k;
    return std::make_unique<Server>(index, opt);
  };
  auto rank_one = [&](Server* server, RequestContext* ctx, uint32_t user) {
    Reply reply;
    reply.Reserve(k);
    server->Rank(
        MakeRequest(user, k, Scenario::kFullRanking, nullptr, nullptr), ctx,
        &reply);
    EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
  };
  // Four callers build their contexts, meet at a barrier, and send one
  // full ranking each.
  auto four_callers = [&](Server* server) {
    constexpr int kCallers = 4;
    std::barrier start(kCallers);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        RequestContext ctx(*server);
        start.arrive_and_wait();
        rank_one(server, &ctx, static_cast<uint32_t>(c));
      });
    }
    for (std::thread& c : callers) c.join();
  };

  {  // Every live context joins: the batch closes long before its timeout.
    auto server = make_server(std::chrono::seconds(5));
    const uint64_t before = batches->Get();
    const Clock::time_point t0 = Clock::now();
    four_callers(server.get());
    EXPECT_LT(Clock::now() - t0, std::chrono::seconds(2));
    EXPECT_EQ(batches->Get() - before, 1u);
  }
  {  // A fifth live context that never sends holds it open until then.
    auto server = make_server(std::chrono::milliseconds(200));
    RequestContext idle(*server);
    const uint64_t before = batches->Get();
    const Clock::time_point t0 = Clock::now();
    four_callers(server.get());
    EXPECT_GE(Clock::now() - t0, std::chrono::milliseconds(200));
    EXPECT_EQ(batches->Get() - before, 1u);
  }
  {  // Destroying the only other context releases the waiting leader.
    auto server = make_server(std::chrono::seconds(5));
    auto other = std::make_unique<RequestContext>(*server);
    std::barrier start(2);
    const Clock::time_point t0 = Clock::now();
    std::thread caller([&] {
      RequestContext ctx(*server);
      start.arrive_and_wait();
      rank_one(server.get(), &ctx, 0);
    });
    start.arrive_and_wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    other.reset();
    caller.join();
    EXPECT_LT(Clock::now() - t0, std::chrono::seconds(2));
  }
}

// A context's destructor updates its server's live-context count, so a
// server destroyed before one of its contexts aborts instead of leaving
// the context a dangling server.
TEST(ServeDeathTest, ServerOutlivedByItsContextAborts) {
  data::Dataset ds = SmallDataset();
  auto index = MakeIndex(ds);
  EXPECT_DEATH(
      {
        auto server = std::make_unique<Server>(index, ServerOptions{});
        RequestContext ctx(*server);
        server.reset();
      },
      "a RequestContext outlives its Server");
}

// A context counts toward the server it was built on, and its scratch is
// sized from that server's options, so another server rejects it.
TEST(ServeDeathTest, ContextFromAnotherServerAborts) {
  data::Dataset ds = SmallDataset();
  auto index = MakeIndex(ds);
  EXPECT_DEATH(
      {
        Server a(index, ServerOptions{});
        Server b(index, ServerOptions{});
        RequestContext ctx(a);
        Reply reply;
        b.Rank(MakeRequest(0, 10, Scenario::kFullRanking, nullptr, nullptr),
               &ctx, &reply);
      },
      "RequestContext was built on another Server");
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------------

TEST(ServeAllocTest, SteadyStateRequestLoopDoesNotAllocate) {
  data::Dataset ds = SmallDataset();
  auto index = MakeIndex(ds);
  const uint32_t k = 10;
  ServerOptions opt;
  opt.max_batch = 1;  // Single-threaded loop: no batching waits.
  opt.batch_timeout_us = 0;
  opt.cache_capacity = 32;
  opt.max_k = k;
  Server server(index, opt);
  RequestContext ctx(server);
  Reply reply;
  reply.Reserve(k);

  TraceConfig tc;
  tc.num_users = index->num_users();
  tc.num_items = index->num_items();
  tc.num_events = 400;
  Trace trace = GenerateTrace(tc);
  const std::vector<std::vector<uint32_t>> exclude = ds.UserItemLists();
  const std::vector<Request> requests = MixedRequests(trace, exclude, k);

  // Warmup: first touches register obs handles and size every buffer.
  for (size_t i = 0; i < 100; ++i) server.Rank(requests[i], &ctx, &reply);

  const la::AllocStats la_before = la::MatrixAllocStats();
  const uint64_t obs_before = obs::AllocationCount();
  for (const Request& req : requests) server.Rank(req, &ctx, &reply);
  const la::AllocStats la_after = la::MatrixAllocStats();
  const uint64_t obs_after = obs::AllocationCount();

  EXPECT_EQ(la_after.count - la_before.count, 0u)
      << "Matrix buffer allocations in the steady-state request loop";
  EXPECT_EQ(obs_after - obs_before, 0u)
      << "obs registrations in the steady-state request loop";
}

// The same contract when callers share batches: four clients with
// max_batch 4 send mixed traffic on the f32 index and on its int8 copy.
// Once every client has warmed up, the shared batches, their staging and
// each caller's own scratch allocate nothing.
TEST(ServeAllocTest, ConcurrentCallersSharingBatchesDoNotAllocate) {
  data::Dataset ds = SmallDataset();
  auto f32 = MakeIndex(ds);
  const uint32_t k = 10;
  TraceConfig tc;
  tc.num_users = f32->num_users();
  tc.num_items = f32->num_items();
  tc.num_events = 400;
  const Trace trace = GenerateTrace(tc);
  const std::vector<std::vector<uint32_t>> exclude = ds.UserItemLists();
  std::vector<Request> requests = MixedRequests(trace, exclude, k);
  requests.push_back(
      MakeRequest(static_cast<uint32_t>(f32->num_users()) + 5, k,
                  Scenario::kFullRanking, nullptr, nullptr));

  for (const auto& index : {f32, Int8Copy(*f32)}) {
    ServerOptions opt;
    opt.max_batch = 4;
    opt.batch_timeout_us = 100;
    opt.cache_capacity = 32;
    opt.max_k = k;
    Server server(index, opt);
    constexpr int kClients = 4;
    constexpr size_t kWarmup = 100;
    // The main thread joins both barriers: it reads the counters between
    // the end of every warm-up and the start of every measured loop.
    std::barrier warmed(kClients + 1);
    std::barrier counted(kClients + 1);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        RequestContext ctx(server);
        Reply reply;
        reply.Reserve(k);
        const size_t offset = 97 * static_cast<size_t>(c);
        for (size_t j = 0; j < kWarmup; ++j) {
          server.Rank(requests[(j + offset) % requests.size()], &ctx, &reply);
        }
        warmed.arrive_and_wait();
        counted.arrive_and_wait();
        for (size_t j = 0; j < requests.size(); ++j) {
          server.Rank(requests[(j + offset) % requests.size()], &ctx, &reply);
        }
      });
    }
    warmed.arrive_and_wait();
    const la::AllocStats la_before = la::MatrixAllocStats();
    const uint64_t obs_before = obs::AllocationCount();
    counted.arrive_and_wait();
    for (std::thread& t : clients) t.join();
    const la::AllocStats la_after = la::MatrixAllocStats();
    const uint64_t obs_after = obs::AllocationCount();

    EXPECT_EQ(la_after.count - la_before.count, 0u)
        << "Matrix buffer allocations with shared batches, quantized="
        << index->quantized();
    EXPECT_EQ(obs_after - obs_before, 0u)
        << "obs registrations with shared batches, quantized="
        << index->quantized();
  }
}

}  // namespace
}  // namespace pup::serve
