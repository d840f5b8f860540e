// Latency-under-load benchmark for the pup::serve engine.
//
// Freezes a synthetic trained model into a ServingIndex and drives it
// with a Zipfian "million-user day" trace (hot users repeat, a tail is
// seen once; mixed full-ranking / re-rank / cold-start traffic):
//
//  * closed loop — N client threads issue back-to-back requests; the
//    engine sets the pace. Reports throughput (QPS) and per-request
//    latency percentiles at each thread count.
//  * open loop — dispatcher threads fire requests on the trace's Poisson
//    arrival schedule at a rate derived from measured capacity; latency
//    is measured from *scheduled arrival* to completion, so queueing
//    delay under load is visible.
//
// Per-config latency histograms land in the obs registry under
// serve/closed/t<N>/latency and serve/open/t<N>/latency, and QPS /
// cache-hit-rate / batch-occupancy summaries in serve/bench/* gauges —
// all embedded in the one-line bench JSON by bench::Finish(). A bitwise
// parity case (served top-K vs offline reference ranking) gates the run:
// load numbers from an engine that misranks are meaningless.
//
// Env knobs: PUP_BENCH_SCALE shrinks/grows the catalog and the trace
// (CI smoke uses 0.05), PUP_BENCH_DIM the embedding size,
// PUP_BENCH_THREADS the kernel pool, PUP_BENCH_SIMD the backend.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "eval/topk.h"
#include "harness.h"
#include "la/matrix.h"
#include "la/qmatrix.h"
#include "models/scoring.h"
#include "obs/registry.h"
#include "serve/index.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace {

using namespace pup;

constexpr uint32_t kTopK = 10;

struct LoadStats {
  double qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double hit_rate = 0.0;
  double occupancy = 0.0;
  uint64_t served = 0;
};

serve::ServerOptions MakeOptions() {
  serve::ServerOptions opt;
  opt.max_batch = 32;
  opt.batch_timeout_us = 100;
  opt.cache_capacity = 4096;
  opt.max_k = 100;
  return opt;
}

// Quantization-comparison options: cache OFF (with the Zipf result cache
// on, hot users hit the cache in every config and the f32/int8/int4 QPS
// columns converge toward cache throughput instead of scoring cost) and
// batching OFF (a lone closed-loop client never has companions, so the
// batch-timeout dawdle would just add an identical constant to every
// mode and drown the scoring-cost difference being measured).
serve::ServerOptions MakeQuantOptions() {
  serve::ServerOptions opt = MakeOptions();
  opt.cache_capacity = 0;
  opt.max_batch = 1;
  opt.batch_timeout_us = 0;
  return opt;
}

// Snapshot-diffs the server's cache/batch counters around `body` and
// fills the shared parts of `stats`.
template <typename Fn>
void WithServeCounters(Fn body, LoadStats* stats) {
  obs::Registry& reg = obs::Registry::Global();
  const uint64_t hit0 = reg.GetCounter("serve/cache_hit")->Get();
  const uint64_t miss0 = reg.GetCounter("serve/cache_miss")->Get();
  const uint64_t batches0 = reg.GetCounter("serve/batches")->Get();
  const uint64_t occ0 = reg.GetHistogram("serve/batch_occupancy")->Sum();
  body();
  const uint64_t hits = reg.GetCounter("serve/cache_hit")->Get() - hit0;
  const uint64_t misses = reg.GetCounter("serve/cache_miss")->Get() - miss0;
  const uint64_t batches = reg.GetCounter("serve/batches")->Get() - batches0;
  const uint64_t occ =
      reg.GetHistogram("serve/batch_occupancy")->Sum() - occ0;
  stats->hit_rate = hits + misses > 0
                        ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0;
  stats->occupancy =
      batches > 0 ? static_cast<double>(occ) / static_cast<double>(batches)
                  : 0.0;
}

void FillRequest(const serve::Trace& trace, const serve::TraceEvent& ev,
                 const std::vector<std::vector<uint32_t>>& exclude,
                 serve::Request* req) {
  req->user = ev.user;
  req->k = kTopK;
  req->scenario = ev.scenario;
  req->candidates = nullptr;
  req->exclude = nullptr;
  if (ev.scenario == serve::Scenario::kRerank) {
    req->candidates = &trace.rerank_pools[ev.pool];
  } else if (ev.user < exclude.size()) {
    req->exclude = &exclude[ev.user];
  }
}

// Closed loop: `clients` threads race down the trace back-to-back.
LoadStats RunClosedLoop(serve::Server* server, const serve::Trace& trace,
                        const std::vector<std::vector<uint32_t>>& exclude,
                        int clients, obs::Histogram* latency) {
  LoadStats stats;
  WithServeCounters(
      [&] {
        std::atomic<size_t> next{0};
        const uint64_t t0 = obs::NowNanos();
        std::vector<std::thread> workers;
        workers.reserve(static_cast<size_t>(clients));
        for (int c = 0; c < clients; ++c) {
          workers.emplace_back([&] {
            serve::RequestContext ctx(*server);
            serve::Reply reply;
            reply.Reserve(server->options().max_k);
            serve::Request req;
            for (;;) {
              const size_t i = next.fetch_add(1, std::memory_order_relaxed);
              if (i >= trace.events.size()) break;
              FillRequest(trace, trace.events[i], exclude, &req);
              const uint64_t start = obs::NowNanos();
              server->Rank(req, &ctx, &reply);
              latency->Observe(obs::NowNanos() - start);
            }
          });
        }
        for (std::thread& w : workers) w.join();
        const double secs =
            static_cast<double>(obs::NowNanos() - t0) / 1e9;
        stats.served = trace.events.size();
        stats.qps = static_cast<double>(stats.served) / secs;
      },
      &stats);
  stats.p50_us = latency->Percentile(50) / 1e3;
  stats.p95_us = latency->Percentile(95) / 1e3;
  stats.p99_us = latency->Percentile(99) / 1e3;
  return stats;
}

// Open loop: dispatchers honour the trace's arrival schedule (rescaled
// to `target_qps`); latency includes time spent queued behind slow
// batches, the way a real SLO sees it.
LoadStats RunOpenLoop(serve::Server* server, const serve::Trace& trace,
                      const std::vector<std::vector<uint32_t>>& exclude,
                      int dispatchers, double target_qps,
                      obs::Histogram* latency) {
  // The generated trace is paced at TraceConfig::arrival_qps; rescale
  // its arrival offsets to the requested rate.
  const double native_span_us = static_cast<double>(
      trace.events.empty() ? 0 : trace.events.back().arrival_us);
  const double native_qps =
      native_span_us > 0.0
          ? static_cast<double>(trace.events.size()) * 1e6 / native_span_us
          : 0.0;
  const double stretch = native_qps > 0.0 ? native_qps / target_qps : 1.0;

  LoadStats stats;
  WithServeCounters(
      [&] {
        std::atomic<size_t> next{0};
        const uint64_t t0 = obs::NowNanos();
        std::vector<std::thread> workers;
        workers.reserve(static_cast<size_t>(dispatchers));
        for (int c = 0; c < dispatchers; ++c) {
          workers.emplace_back([&] {
            serve::RequestContext ctx(*server);
            serve::Reply reply;
            reply.Reserve(server->options().max_k);
            serve::Request req;
            for (;;) {
              const size_t i = next.fetch_add(1, std::memory_order_relaxed);
              if (i >= trace.events.size()) break;
              const serve::TraceEvent& ev = trace.events[i];
              const uint64_t scheduled_ns =
                  t0 + static_cast<uint64_t>(
                           static_cast<double>(ev.arrival_us) * stretch *
                           1e3);
              while (obs::NowNanos() < scheduled_ns) {
                std::this_thread::yield();
              }
              FillRequest(trace, ev, exclude, &req);
              server->Rank(req, &ctx, &reply);
              latency->Observe(obs::NowNanos() - scheduled_ns);
            }
          });
        }
        for (std::thread& w : workers) w.join();
        const double secs =
            static_cast<double>(obs::NowNanos() - t0) / 1e9;
        stats.served = trace.events.size();
        stats.qps = static_cast<double>(stats.served) / secs;
      },
      &stats);
  stats.p50_us = latency->Percentile(50) / 1e3;
  stats.p95_us = latency->Percentile(95) / 1e3;
  stats.p99_us = latency->Percentile(99) / 1e3;
  return stats;
}

// Closed-loop full-ranking driver for the quantization comparison: no
// scenario mix, every request ranks the whole catalog, so the per-mode
// columns compare scoring cost and nothing else.
LoadStats RunScoringLoop(serve::Server* server,
                         const std::vector<std::vector<uint32_t>>& exclude,
                         size_t requests, int clients,
                         obs::Histogram* latency) {
  const size_t num_users = server->snapshot()->num_users();
  LoadStats stats;
  WithServeCounters(
      [&] {
        std::atomic<size_t> next{0};
        const uint64_t t0 = obs::NowNanos();
        std::vector<std::thread> workers;
        workers.reserve(static_cast<size_t>(clients));
        for (int c = 0; c < clients; ++c) {
          workers.emplace_back([&] {
            serve::RequestContext ctx(*server);
            serve::Reply reply;
            reply.Reserve(server->options().max_k);
            serve::Request req;
            for (;;) {
              const size_t i = next.fetch_add(1, std::memory_order_relaxed);
              if (i >= requests) break;
              req.user = static_cast<uint32_t>(i % num_users);
              req.k = kTopK;
              req.scenario = serve::Scenario::kFullRanking;
              req.candidates = nullptr;
              req.exclude =
                  req.user < exclude.size() ? &exclude[req.user] : nullptr;
              const uint64_t start = obs::NowNanos();
              server->Rank(req, &ctx, &reply);
              latency->Observe(obs::NowNanos() - start);
            }
          });
        }
        for (std::thread& w : workers) w.join();
        const double secs =
            static_cast<double>(obs::NowNanos() - t0) / 1e9;
        stats.served = requests;
        stats.qps = static_cast<double>(requests) / secs;
      },
      &stats);
  stats.p50_us = latency->Percentile(50) / 1e3;
  stats.p95_us = latency->Percentile(95) / 1e3;
  stats.p99_us = latency->Percentile(99) / 1e3;
  return stats;
}

// Mean top-50 overlap between the quantized server's full rankings and
// the exact f32 server's over a user sample — the recall axis of the
// recall-vs-QPS tradeoff (docs/quantization.md).
double MeanRecallAt50(serve::Server* exact, serve::Server* quant,
                      const std::vector<std::vector<uint32_t>>& exclude) {
  serve::RequestContext ectx(*exact);
  serve::RequestContext qctx(*quant);
  serve::Reply er;
  serve::Reply qr;
  er.Reserve(exact->options().max_k);
  qr.Reserve(quant->options().max_k);
  const size_t sample = std::min<size_t>(exclude.size(), 64);
  if (sample == 0) return 1.0;
  double sum = 0.0;
  for (size_t u = 0; u < sample; ++u) {
    serve::Request req;
    req.user = static_cast<uint32_t>(u);
    req.k = 50;
    req.exclude = &exclude[u];
    exact->Rank(req, &ectx, &er);
    quant->Rank(req, &qctx, &qr);
    sum += eval::OverlapRecall(er.items, qr.items);
  }
  return sum / static_cast<double>(sample);
}

void RecordLoadCase(const std::string& name, const LoadStats& s,
                    size_t expected) {
  const bool ok = s.qps > 0.0 && s.served == expected && s.p99_us >= 0.0;
  bench::RecordCase(name, ok,
                    ok ? "" : "zero throughput or dropped requests");
  obs::Registry& reg = obs::Registry::Global();
  reg.GetGauge("serve/bench/" + name + "/qps")
      ->Set(static_cast<int64_t>(s.qps));
  reg.GetGauge("serve/bench/" + name + "/hit_pct")
      ->Set(static_cast<int64_t>(s.hit_rate * 100.0));
  reg.GetGauge("serve/bench/" + name + "/occupancy_x100")
      ->Set(static_cast<int64_t>(s.occupancy * 100.0));
}

// Bitwise parity gate: the served full ranking must equal the offline
// reference ranking (IndexScorer scores + the library tie-break rule).
bool VerifyParity(const serve::ServingIndex& index,
                  std::shared_ptr<const serve::ServingIndex> shared,
                  const std::vector<std::vector<uint32_t>>& exclude) {
  serve::Server server(std::move(shared), MakeOptions());
  serve::RequestContext ctx(server);
  serve::Reply reply;
  reply.Reserve(server.options().max_k);
  serve::IndexScorer scorer(&index);
  std::vector<float> scores;
  const size_t sample = std::min<size_t>(index.num_users(), 32);
  for (size_t u = 0; u < sample; ++u) {
    serve::Request req;
    req.user = static_cast<uint32_t>(u);
    req.k = kTopK;
    req.exclude = &exclude[u];
    server.Rank(req, &ctx, &reply);

    scorer.ScoreItems(static_cast<uint32_t>(u), &scores);
    for (uint32_t id : exclude[u]) {
      scores[id] = -std::numeric_limits<float>::infinity();
    }
    std::vector<uint32_t> ids(scores.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
    std::sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
      if (scores[a] != scores[b]) return scores[a] > scores[b];
      return a < b;
    });
    for (size_t r = 0; r < reply.items.size(); ++r) {
      if (reply.items[r] != ids[r] || reply.scores[r] != scores[ids[r]]) {
        return false;
      }
    }
    if (reply.items.size() != std::min<size_t>(kTopK, ids.size())) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::Env env = bench::GetEnv();

  // The catalog analogue: a few-thousand-user Yelp-like slice at scale 1
  // (the trace's Zipf repetition is what makes it a "day" of traffic).
  data::SyntheticConfig config =
      data::SyntheticConfig::YelpLike().Scaled(env.scale * 2.0);
  data::Dataset ds = data::GenerateSynthetic(config);
  if (!data::QuantizeDataset(&ds, 4, data::QuantizationScheme::kUniform)
           .ok()) {
    std::fprintf(stderr, "quantization failed\n");
    return 1;
  }
  Rng rng(17);
  la::Matrix users =
      la::Matrix::Gaussian(ds.num_users, env.embedding_dim, 0.3f, &rng);
  la::Matrix items =
      la::Matrix::Gaussian(ds.num_items, env.embedding_dim, 0.3f, &rng);
  std::vector<float> bias(ds.num_items);
  for (float& b : bias) b = rng.NextFloat() * 0.2f;
  models::DotScorer scorer(std::move(users), std::move(items),
                           std::move(bias));
  auto index = std::make_shared<const serve::ServingIndex>(
      serve::ServingIndex::Freeze(scorer, ds, "bench"));
  const std::vector<std::vector<uint32_t>> exclude = ds.UserItemLists();

  std::printf("=== serve load — frozen index %zu users x %zu items, dim %zu "
              "===\n",
              index->num_users(), index->num_items(), index->dim());

  bench::RecordCase("serve/parity/bitwise",
                    VerifyParity(*index, index, exclude),
                    "served top-K != offline reference ranking");

  serve::TraceConfig tc;
  tc.num_users = index->num_users();
  tc.num_items = index->num_items();
  tc.num_events = static_cast<size_t>(40000 * env.scale);
  tc.num_events = std::max<size_t>(tc.num_events, 500);
  serve::Trace trace = serve::GenerateTrace(tc);

  obs::Registry& reg = obs::Registry::Global();
  TextTable table({"scenario", "threads", "qps", "p50_us", "p95_us",
                   "p99_us", "hit_rate", "occupancy"});
  auto add_row = [&](const char* scenario, int threads,
                     const LoadStats& s) {
    table.AddRow({scenario, std::to_string(threads), FormatFixed(s.qps, 0),
                  FormatFixed(s.p50_us, 1), FormatFixed(s.p95_us, 1),
                  FormatFixed(s.p99_us, 1), FormatFixed(s.hit_rate, 3),
                  FormatFixed(s.occupancy, 2)});
  };

  // Closed loop at two client counts; fresh server per run so cache and
  // counter deltas are per-configuration.
  double capacity_qps = 0.0;
  for (int clients : {1, 4}) {
    serve::Server server(index, MakeOptions());
    const std::string label =
        "serve/closed/t" + std::to_string(clients) + "/latency";
    LoadStats s = RunClosedLoop(&server, trace, exclude, clients,
                                reg.GetTimer(label));
    add_row("closed", clients, s);
    RecordLoadCase("closed_t" + std::to_string(clients), s,
                   trace.events.size());
    capacity_qps = std::max(capacity_qps, s.qps);
  }

  // Open loop at ~60% of measured capacity: stable but busy enough for
  // micro-batches to form. Each dispatcher blocks in a synchronous Rank,
  // so too few of them measure their own lag behind the schedule, not
  // the server: on a 4-vCPU x86 host, 4 dispatchers read a p95 of
  // 5.5-12.2 ms where 8 read 0.24-0.39 ms at the same rate.
  const double target_qps = std::max(capacity_qps * 0.6, 1000.0);
  {
    constexpr int kDispatchers = 8;
    serve::Server server(index, MakeOptions());
    obs::Histogram* latency = reg.GetTimer("serve/open/t8/latency");
    LoadStats s = RunOpenLoop(&server, trace, exclude, kDispatchers,
                              target_qps, latency);
    add_row("open", kDispatchers, s);
    RecordLoadCase("open_t8", s, trace.events.size());
  }

  std::printf("%s", table.ToString().c_str());
  std::printf("open-loop target: %.0f qps\n", target_qps);

  // --- Quantized serving: bytes/item vs recall@50 vs QPS ----------------
  // The trace catalog above is sized for cache/batch behaviour and is far
  // too small for scoring cost to matter, so this section freezes its own
  // serving-scale catalog (floored at 8192 items regardless of
  // PUP_BENCH_SCALE) where the per-request catalog scan dominates — the
  // regime quantization exists for. It is driven with a single in-flight
  // client: one request at a time means the f32 GEMM path and the
  // quantized fastscan path each scan the catalog exactly once per
  // request, so the per-mode columns compare scoring cost; batch
  // amortization is the open-loop section's job. Fresh cache-less server
  // per mode (see MakeQuantOptions); recall is measured against a second
  // exact-f32 server over the same index.
  data::SyntheticConfig qconfig;
  qconfig.num_users = 256;
  qconfig.num_items =
      std::max<size_t>(8192, static_cast<size_t>(24000.0 * env.scale));
  qconfig.num_interactions = 4096;
  data::Dataset qds = data::GenerateSynthetic(qconfig);
  if (!data::QuantizeDataset(&qds, 4, data::QuantizationScheme::kUniform)
           .ok()) {
    std::fprintf(stderr, "quant-catalog quantization failed\n");
    return 1;
  }
  la::Matrix qusers =
      la::Matrix::Gaussian(qds.num_users, env.embedding_dim, 0.3f, &rng);
  la::Matrix qitems =
      la::Matrix::Gaussian(qds.num_items, env.embedding_dim, 0.3f, &rng);
  std::vector<float> qbias(qds.num_items);
  for (float& b : qbias) b = rng.NextFloat() * 0.2f;
  models::DotScorer qscorer(std::move(qusers), std::move(qitems),
                            std::move(qbias));
  auto qbase = std::make_shared<const serve::ServingIndex>(
      serve::ServingIndex::Freeze(qscorer, qds, "bench-quant"));
  const std::vector<std::vector<uint32_t>> qexclude = qds.UserItemLists();

  std::printf("\n--- quantized full-ranking scoring (%zu items, cache off) "
              "---\n",
              qbase->num_items());
  const size_t qreq =
      std::max<size_t>(static_cast<size_t>(8000.0 * env.scale), 400);
  TextTable qt({"mode", "bytes/item", "recall@50", "qps", "p50_us", "p99_us",
                "speedup"});
  double f32_qps = 0.0;
  for (la::QuantMode mode : {la::QuantMode::kOff, la::QuantMode::kInt8,
                             la::QuantMode::kInt4}) {
    const char* mname =
        mode == la::QuantMode::kOff ? "f32" : la::QuantModeName(mode);
    std::shared_ptr<const serve::ServingIndex> qindex = qbase;
    if (mode != la::QuantMode::kOff) {
      auto q = qbase->WithQuant(mode);
      if (!q.ok()) {
        bench::RecordCase(std::string("quant_") + mname, false,
                          q.status().ToString());
        continue;
      }
      qindex = std::make_shared<const serve::ServingIndex>(
          std::move(q).value());
    }
    serve::Server server(qindex, MakeQuantOptions());
    double recall = 1.0;
    if (mode != la::QuantMode::kOff) {
      serve::Server exact(qbase, MakeQuantOptions());
      recall = MeanRecallAt50(&exact, &server, qexclude);
    }
    LoadStats s = RunScoringLoop(
        &server, qexclude, qreq, 1,
        reg.GetTimer(std::string("serve/quant/") + mname + "/latency"));
    const size_t bytes_per_item = mode == la::QuantMode::kOff
                                      ? qindex->dim() * sizeof(float)
                                      : qindex->quant_items().BytesPerRow();
    if (mode == la::QuantMode::kOff) f32_qps = s.qps;
    const double speedup = f32_qps > 0.0 ? s.qps / f32_qps : 0.0;
    qt.AddRow({mname, std::to_string(bytes_per_item), FormatFixed(recall, 4),
               FormatFixed(s.qps, 0), FormatFixed(s.p50_us, 1),
               FormatFixed(s.p99_us, 1), FormatFixed(speedup, 2)});
    const std::string g = std::string("serve/bench/quant/") + mname;
    reg.GetGauge(g + "/qps")->Set(static_cast<int64_t>(s.qps));
    reg.GetGauge(g + "/bytes_per_item")
        ->Set(static_cast<int64_t>(bytes_per_item));
    reg.GetGauge(g + "/recall50_x10000")
        ->Set(static_cast<int64_t>(recall * 10000.0));
    reg.GetGauge(g + "/speedup_x100")
        ->Set(static_cast<int64_t>(speedup * 100.0));
    // The 0.95x-of-f32 recall floor is asserted by the CI quant job from
    // the JSON summary; the in-bench case only rejects degeneracy.
    bench::RecordCase(std::string("quant_") + mname,
                      s.qps > 0.0 && s.served == qreq && recall >= 0.5,
                      "quantized scoring degenerated (no qps or recall<0.5)");
  }
  std::printf("%s", qt.ToString().c_str());
  return bench::Finish();
}
