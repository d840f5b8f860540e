// Performance ledger: one benchmark for the PUP trainer, the offline
// evaluator and the frozen-index server (bench_ledger/README.md).
//
//   bench_ledger --workload NAME --seed N --seconds S --trace 0|1
//                [--work-dir DIR] [--trace-out FILE] [--out FILE] [--rev REV]
//
// One run measures one workload for S seconds. The seed drives the
// synthetic data, the request trace and the serving embeddings; the
// program under test only ever sees those generated inputs.
//
// --trace 0 keeps the obs layer off and reports the end-to-end metrics.
// --trace 1 first measures throughput untraced (for trace.overhead), then
// turns obs on, installs a TraceRecorder, emits spans around every public
// call the ledger makes, reads the library's own counters and timers, runs
// the per-layer probes, and reports the per-layer metrics.
//
// Every percentile is exact: raw samples go into preallocated vectors and
// are sorted afterwards; obs::Histogram buckets are never read for one.
//
// Each metric is printed as "<workload> <metric> <value> <unit>", then a
// host line, then, last, one JSON object {correct, attempted, failed,
// metrics}. Exit status: 0 when every output check passed, 1 when one
// failed, 2 on bad arguments.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "autograd/tensor.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/pup_model.h"
#include "data/dataset.h"
#include "data/kcore.h"
#include "data/quantization.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/topk.h"
#include "graph/hetero_graph.h"
#include "la/matrix.h"
#include "models/bpr_mf.h"
#include "models/scoring.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/index.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "train/trainer.h"

namespace {

using namespace pup;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workload definitions. Ladder rates are absolute and frozen: a parent and
// its change must be offered the same load, so they are never derived at
// run time. They were set from the closed-loop capacity measured on a
// 4-vCPU x86 host (AVX-512, gcc 12, Release): about 2,900 req/s for f32
// and 5,400 for int8, so their rungs sit near a fifth, two fifths and three
// fifths of it. serve-mixed closes at 75-120k req/s thanks to its cache,
// but after each reload every request misses until the cache refills, and
// rates past 30k built a backlog there.

constexpr const char* kWorkloads[] = {"train-pup", "train-mf", "serve-mixed",
                                      "serve-f32", "serve-int8"};

struct TrainSpec {
  double scale = 1.0;  // Yelp-like dataset scale.
  int epochs = 1;      // Epochs per Model::Fit.
};

struct ServeSpec {
  // The Yelp-like catalog with re-rank and cold-start traffic, the result
  // cache on and an index reload in every closed-loop window; otherwise the
  // 24k-item catalog, full ranking only, no cache.
  bool mixed = false;
  la::QuantMode quant = la::QuantMode::kOff;
  double ladder_qps[3] = {0, 0, 0};
  double p90_limit_us = 0;
};

constexpr size_t kTrainThreads = 4;
constexpr size_t kServeClients = 4;
constexpr size_t kBatchSize = 1024;
// Set-up is timed once before the measurement, again between windows of
// an untraced run (after every fit-and-evaluate cycle, after every third
// closed-loop serving window), and then until there are kSetupReps samples. The host's
// speed drifts over seconds, so a median over reps spread across the run
// is steadier than one over a burst of back-to-back reps.
constexpr size_t kSetupReps = 11;
constexpr int kRecallCutoff = 50;
constexpr uint32_t kTopK = 10;
constexpr size_t kVerifyEvery = 64;   // 1-in-64 served replies are checked.
constexpr size_t kServeDim = 64;
constexpr size_t kCatalogUsers = 4096;
constexpr size_t kCatalogItems = 24000;
constexpr size_t kCacheCapacity = 4096;
constexpr double kMinOverlap = 0.9;   // int8 top-k overlap floor vs f32.

TrainSpec TrainSpecFor(const std::string& w) {
  if (w == "train-pup") return {.scale = 1.0, .epochs = 3};
  return {.scale = 2.0, .epochs = 4};
}

ServeSpec ServeSpecFor(const std::string& w) {
  ServeSpec s;
  if (w == "serve-mixed") {
    s.mixed = true;
    s.ladder_qps[0] = 10000;
    s.ladder_qps[1] = 20000;
    s.ladder_qps[2] = 30000;
    s.p90_limit_us = 500;
  } else if (w == "serve-f32") {
    s.ladder_qps[0] = 600;
    s.ladder_qps[1] = 1200;
    s.ladder_qps[2] = 1800;
    s.p90_limit_us = 2000;
  } else {
    s.quant = la::QuantMode::kInt8;
    s.ladder_qps[0] = 1000;
    s.ladder_qps[1] = 2000;
    s.ladder_qps[2] = 3000;
    s.p90_limit_us = 1000;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Arguments.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
  std::string out;
  std::string rev = "unknown";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "bench_ledger: %s\n"
               "usage: bench_ledger --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE] [--out FILE] "
               "[--rev REV]\nworkloads:",
               error.c_str());
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

template <typename T>
T ParseNumber(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    Usage("malformed value '" + text + "' for " + flag);
  }
  return value;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + flag);
    }
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseNumber<uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = ParseNumber<double>(flag, value);
      if (!(args.seconds > 0 && args.seconds <= 120)) {
        Usage("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      const int t = ParseNumber<int>(flag, value);
      if (t != 0 && t != 1) Usage("--trace must be 0 or 1");
      args.trace = t == 1;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--rev") {
      args.rev = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return args.workload == w; }) ==
      std::end(kWorkloads)) {
    Usage("unknown workload '" + args.workload + "'");
  }
  return args;
}

// ---------------------------------------------------------------------------
// Samples, exact percentiles, clocks.

double NowSeconds() { return static_cast<double>(obs::NowNanos()) * 1e-9; }

// Exact percentile p in [0, 100] of raw samples: linear interpolation
// between the two nearest order statistics. Sorts `v` in place.
template <typename T>
double Percentile(std::vector<T>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = p / 100.0 * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double a = static_cast<double>((*v)[lo]);
  const double b = static_cast<double>((*v)[hi]);
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

double Median(std::vector<double> v) { return Percentile(&v, 50); }

// A run is cut into windows (one fit-and-evaluate cycle, or half a second
// of serving) and an end-to-end metric is the best-decile value of its
// per-window statistic: the 10th percentile across windows when lower is
// better, the 90th when higher is better. Load from other tenants of a
// shared host only ever slows a window down, so this tracks the code as
// long as a tenth of the run is undisturbed. It also settles serve-int8's
// closed-loop p50, whose windows fall into two clusters (three or four
// requests per batch cycle, about 800 or 1,100 us): in two sets of ten
// runs, its spread was 4-6% as the best decile, 10-22% as the best
// quartile and 12-32% as the median across windows.
double BestDecile(std::vector<double> per_window, bool lower_is_better) {
  return Percentile(&per_window, lower_is_better ? 10 : 90);
}

// Fixed-capacity sample buffer: allocates once, never grows, so recording
// from a request loop costs a bounds check and a store.
template <typename T>
class SampleBuffer {
 public:
  explicit SampleBuffer(size_t capacity) { data_.reserve(capacity); }
  void Add(T v) {
    if (data_.size() < data_.capacity()) data_.push_back(v);
  }
  std::vector<T>& data() { return data_; }

 private:
  std::vector<T> data_;
};

// Emits one chrome://tracing span for its scope when a recorder is
// installed. `name` must be a string literal.
class Span {
 public:
  explicit Span(const char* name)
      : name_(name), active_(obs::TraceRecorder::Current() != nullptr),
        start_(active_ ? obs::NowNanos() : 0) {}
  ~Span() {
    obs::TraceRecorder* r = obs::TraceRecorder::Current();
    if (active_ && r != nullptr) {
      r->Emit(name_, start_, obs::NowNanos() - start_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_;
  uint64_t start_;
};

// Set-up steps that cannot fail on generated inputs; a failure is a bug.
void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "bench_ledger: %s failed: %s\n", what,
                 st.ToString().c_str());
    std::exit(1);
  }
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Every per-layer metric, in report order, with its unit. A traced run
// reports all of them; those that do not apply to a workload read 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"data.sample_epoch_ms", "ms"},
      {"graph.build_ms", "ms"},
      {"graph.nodes", "count"},
      {"graph.nnz", "count"},
      {"graph.batch_row_share", "fraction"},
      {"ag.step_ms", "ms"},
      {"ag.forward_ms", "ms"},
      {"ag.backward_ms", "ms"},
      {"ag.optimizer_ms", "ms"},
      {"ag.allocs_per_step", "count"},
      {"ag.tape_nodes_per_step", "count"},
      {"ag.probe_fidelity", "ratio"},
      {"la.spmm_calls_per_step", "count"},
      {"la.spmm_flop_per_step", "flop"},
      {"la.spmm_bytes_per_step", "B"},
      {"la.score_batch_calls_per_req", "count"},
      {"la.score_quant_calls_per_req", "count"},
      {"threadpool.parallel_fors_per_step", "count"},
      {"threadpool.task_wait_ms_per_step", "ms"},
      {"train.batch_step_ms", "ms"},
      {"train.epoch_ms", "ms"},
      {"train.sample_epoch_ms", "ms"},
      {"train.recall_at_50", "fraction"},
      {"ckpt.write_ms", "ms"},
      {"ckpt.bytes_per_save", "B"},
      {"ckpt.index_load_ms", "ms"},
      {"eval.users_per_s", "1/s"},
      {"eval.score_ms", "ms"},
      {"eval.select_ms", "ms"},
      {"serve.topk_overlap", "fraction"},
      {"serve.cache_hit_ratio", "fraction"},
      {"serve.batch_occupancy", "count"},
      {"serve.batch_exec_us", "us"},
      {"serve.wait_us", "us"},
      {"serve.hit_p50_us", "us"},
      {"serve.full_p50_us", "us"},
      {"serve.rerank_p50_us", "us"},
      {"serve.cold_p50_us", "us"},
      {"serve.quant.fastscan_us", "us"},
      {"serve.quant.post_scan_us", "us"},
      {"serve.quant.select_us", "us"},
      {"serve.reload_ms", "ms"},
      {"serve.closed_p50_us", "us"},
      {"serve.closed_p90_us", "us"},
      {"serve.closed_p99_us", "us"},
      {"serve.closed_samples", "count"},
      {"serve.open_p99_us", "us"},
      {"serve.open_p999_us", "us"},
      {"serve.open_samples", "count"},
      {"serve.gen_lag_p99_us", "us"},
      {"serve.ladder_mid_p90_us", "us"},
      {"serve.ladder_hi_p90_us", "us"},
      {"serve.slo_qps", "1/s"},
      {"serve.closed_sent", "count"},
      {"serve.closed_failed", "count"},
      {"serve.open_sent", "count"},
      {"serve.open_failed", "count"},
      {"trace.overhead", "ratio"},
      {"trace.dropped", "count"},
      {"trace.events", "count"},
  };
  return names;
}

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::map<std::string, double> layer;  // Per-layer values by name.
  std::vector<std::string> notes;       // Why a check failed.

  void Fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
};

// ---------------------------------------------------------------------------
// The program's own counters and timers (read, never added to).

struct ObsTotals {
  std::map<std::string, double> v;
  double operator[](const std::string& k) const {
    auto it = v.find(k);
    return it == v.end() ? 0.0 : it->second;
  }
};

constexpr const char* kCounters[] = {
    "train/batches",      "la/score_batch",     "la/score_quant",
    "threadpool/parallel_fors", "ckpt/bytes_written", "ckpt/files_written",
    "serve/requests",     "serve/cache_hit",    "serve/cache_miss"};
constexpr const char* kTimers[] = {
    "train/batch_step",     "train/epoch",          "train/sample_epoch",
    "threadpool/task_wait", "ckpt/write",           "serve/batch",
    "serve/quant/fastscan", "serve/quant/post_scan", "serve/quant/select"};

ObsTotals ReadObs() {
  obs::Registry& reg = obs::Registry::Global();
  ObsTotals t;
  for (const char* c : kCounters) {
    t.v[c] = static_cast<double>(reg.GetCounter(c)->Get());
  }
  for (const char* h : kTimers) {
    const obs::Histogram* timer = reg.GetTimer(h);
    t.v[std::string(h) + ".sum"] = static_cast<double>(timer->Sum());
    t.v[std::string(h) + ".count"] = static_cast<double>(timer->Count());
  }
  const obs::Histogram* occ = reg.GetHistogram("serve/batch_occupancy");
  t.v["serve/batch_occupancy.sum"] = static_cast<double>(occ->Sum());
  t.v["serve/batch_occupancy.count"] = static_cast<double>(occ->Count());
  return t;
}

ObsTotals Delta(const ObsTotals& before, const ObsTotals& after) {
  ObsTotals d;
  for (const auto& [k, v] : after.v) d.v[k] = v - before[k];
  return d;
}

void Accumulate(const ObsTotals& delta, ObsTotals* total) {
  for (const auto& [k, v] : delta.v) total->v[k] += v;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Mean of an obs timer over a delta, in nanoseconds.
double TimerMeanNs(const ObsTotals& d, const std::string& name) {
  return Ratio(d[name + ".sum"], d[name + ".count"]);
}

// Switches the obs layer and the trace recorder together.
void SetTracing(obs::TraceRecorder* recorder, bool on) {
  obs::SetEnabled(on);
  obs::TraceRecorder::Install(on ? recorder : nullptr);
}

// ---------------------------------------------------------------------------
// Training data: generate -> quantize -> 5-core -> temporal 60/20/20 split.

struct Prepared {
  data::Dataset dataset;
  std::vector<data::Interaction> train;
  std::vector<std::vector<uint32_t>> exclude;     // train ∪ valid, sorted.
  std::vector<std::vector<uint32_t>> test_items;  // sorted.
  size_t eval_users = 0;                          // Users with a test item.
};

Prepared PrepareTrainData(double scale, uint64_t seed) {
  Prepared p;
  data::SyntheticConfig config =
      data::SyntheticConfig::YelpLike().Scaled(scale);
  config.seed = DeriveSeed(seed, 1);
  {
    Span span("ledger/prepare/generate");
    p.dataset = data::GenerateSynthetic(config);
  }
  {
    Span span("ledger/prepare/quantize");
    CheckOk(data::QuantizeDataset(&p.dataset, 4,
                                  data::QuantizationScheme::kUniform),
            "price quantization");
  }
  {
    Span span("ledger/prepare/kcore");
    p.dataset = data::KCoreFilter(p.dataset, 5);
  }
  Span span("ledger/prepare/split");
  data::DataSplit split = data::TemporalSplit(p.dataset);
  p.train = std::move(split.train);
  const auto train_items = data::BuildUserItems(p.dataset.num_users, p.train);
  const auto valid_items =
      data::BuildUserItems(p.dataset.num_users, split.valid);
  p.exclude.resize(p.dataset.num_users);
  for (size_t u = 0; u < p.dataset.num_users; ++u) {
    p.exclude[u] = train_items[u];
    p.exclude[u].insert(p.exclude[u].end(), valid_items[u].begin(),
                        valid_items[u].end());
    std::sort(p.exclude[u].begin(), p.exclude[u].end());
  }
  p.test_items = data::BuildUserItems(p.dataset.num_users, split.test);
  for (const auto& t : p.test_items) p.eval_users += t.empty() ? 0 : 1;
  return p;
}

// ---------------------------------------------------------------------------
// Training workloads.

core::PupConfig PupConfigFor(const TrainSpec& spec) {
  core::PupConfig c = core::PupConfig::Full();
  c.train.epochs = spec.epochs;
  c.train.batch_size = kBatchSize;
  return c;
}

models::BprMfConfig MfConfigFor(const TrainSpec& spec,
                                const std::string& ckpt_dir) {
  models::BprMfConfig c;
  c.embedding_dim = 64;
  c.train.epochs = spec.epochs;
  c.train.batch_size = kBatchSize;
  c.train.neg_sampling = data::NegSampling::kPopularity;
  c.train.neg_alpha = 0.75;
  c.train.checkpoint.directory = ckpt_dir;
  c.train.checkpoint.save_every = 1;
  return c;
}

// Per-step time split of one training step, and what the step allocates.
struct StepProbe {
  double step_ms = 0, forward_ms = 0, backward_ms = 0, optimizer_ms = 0,
         allocs_per_step = 0, tape_nodes = 0, spmm_calls_per_step = 0;
};

// One epoch of sampled triples, split into the trainer's batches.
struct Batches {
  std::vector<std::vector<uint32_t>> users, pos, neg;
};

Batches SplitBatches(const std::vector<data::BprTriple>& triples) {
  Batches b;
  for (size_t start = 0; start < triples.size(); start += kBatchSize) {
    const size_t end = std::min(start + kBatchSize, triples.size());
    std::vector<uint32_t> u, p, n;
    for (size_t k = start; k < end; ++k) {
      u.push_back(triples[k].user);
      p.push_back(triples[k].pos_item);
      n.push_back(triples[k].neg_item);
    }
    b.users.push_back(std::move(u));
    b.pos.push_back(std::move(p));
    b.neg.push_back(std::move(n));
  }
  return b;
}

// Times one phase of a probe step into *slot and emits its span.
class PhaseTimer {
 public:
  PhaseTimer(const char* name, uint64_t* slot)
      : span_(name), slot_(slot), start_(obs::NowNanos()) {}
  ~PhaseTimer() { *slot_ += obs::NowNanos() - start_; }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Span span_;
  uint64_t* slot_;
  uint64_t start_;
};

// A model whose every minibatch step is timestamped. The trainer calls
// ForwardBatchLoss exactly once per step, so two consecutive calls in one
// epoch are one full step apart (forward, backward, optimizer, batch
// assembly) — step latency measured inside the real Model::Fit with obs off.
//
// Given probe batches, the first ForwardBatchLoss call also runs the step
// probe. That call happens inside Fit, where the model's training state
// (Pup's dataset pointer, its graph) is set, so the probe drives the
// model's own ForwardBatchLoss, then the trainer's fused L2 penalty,
// Backward and an Adam step: the same calls RunBatchStep makes. Its Adam
// steps move the parameters mid-Fit, so a probed model is never one whose
// recall is checked.
template <typename Model>
class StepClock final : public Model {
 public:
  template <typename Config>
  StepClock(const Config& config, size_t max_steps,
            const Batches* probe_batches = nullptr)
      : Model(config), options_(config.train), probe_batches_(probe_batches) {
    stamps_.reserve(max_steps);
  }

  train::BprTrainable::BatchLossGraph ForwardBatchLoss(
      const std::vector<uint32_t>& users, const std::vector<uint32_t>& pos,
      const std::vector<uint32_t>& neg, bool training) override {
    if (probe_batches_ != nullptr) {
      probe_ = Probe(*probe_batches_);
      probe_batches_ = nullptr;
    }
    if (stamps_.size() < stamps_.capacity()) stamps_.push_back(obs::NowNanos());
    return Model::ForwardBatchLoss(users, pos, neg, training);
  }

  const std::vector<uint64_t>& stamps() const { return stamps_; }
  const StepProbe& probe() const { return probe_; }

 private:
  // Runs every batch once untimed, so each buffer reaches its steady-state
  // capacity (the short last batch has shapes of its own), then once more
  // timing each phase and counting allocations, inside a tape arena of its
  // own as the trainer's reuse_tape does.
  StepProbe Probe(const Batches& b) {
    ag::Adam adam(this->Parameters(),
                  {.learning_rate = options_.learning_rate});
    ag::TapeArena arena;
    auto step = [&](size_t i, uint64_t* ph) {
      {
        ag::TapeArena::Scope scope(&arena);
        ag::Tensor loss;
        {
          PhaseTimer t("ledger/probe/forward", &ph[0]);
          train::BprTrainable::BatchLossGraph g =
              Model::ForwardBatchLoss(b.users[i], b.pos[i], b.neg[i], true);
          loss = std::move(g.loss);
          if (options_.l2_reg > 0.0f && !g.l2_terms.empty()) {
            loss = ag::FusedL2Penalty(
                loss, g.l2_terms,
                options_.l2_reg / static_cast<float>(b.users[i].size()));
          }
        }
        {
          PhaseTimer t("ledger/probe/backward", &ph[1]);
          adam.ZeroGrad();
          ag::Backward(loss);
        }
        PhaseTimer t("ledger/probe/optimizer", &ph[2]);
        adam.Step();
      }
      arena.Reset();
    };
    const size_t steps = b.users.size();
    uint64_t scratch[3] = {0, 0, 0};
    for (size_t s = 0; s < steps; ++s) step(s, scratch);
    uint64_t phases[3] = {0, 0, 0};
    const la::AllocStats a0 = la::MatrixAllocStats();
    const uint64_t heap0 = ag::HeapNodesAllocated();
    const obs::Counter* spmm = obs::Registry::Global().GetCounter("la/spmm");
    const uint64_t spmm0 = spmm->Get();
    const uint64_t t0 = obs::NowNanos();
    for (size_t s = 0; s < steps; ++s) step(s, phases);
    const uint64_t total = obs::NowNanos() - t0;
    const la::AllocStats a1 = la::MatrixAllocStats();
    const double n = static_cast<double>(steps);
    StepProbe pr;
    pr.step_ms = static_cast<double>(total) / n * 1e-6;
    pr.forward_ms = static_cast<double>(phases[0]) / n * 1e-6;
    pr.backward_ms = static_cast<double>(phases[1]) / n * 1e-6;
    pr.optimizer_ms = static_cast<double>(phases[2]) / n * 1e-6;
    pr.allocs_per_step =
        static_cast<double>((a1.count - a0.count) +
                            (ag::HeapNodesAllocated() - heap0)) / n;
    pr.tape_nodes = static_cast<double>(arena.stats().last_tape_nodes);
    pr.spmm_calls_per_step = static_cast<double>(spmm->Get() - spmm0) / n;
    return pr;
  }

  train::TrainOptions options_;
  const Batches* probe_batches_;
  StepProbe probe_;
  std::vector<uint64_t> stamps_;
};

struct FitOutcome {
  double fit_s = 0;
  double eval_s = 0;
  double recall = 0;
  double step_p50_ns = 0;
  double step_p90_ns = 0;
};

// Fits a fresh model and evaluates it.
template <typename Model, typename Config>
FitOutcome FitOnce(const Config& config, const Prepared& p,
                   ObsTotals* fit_obs) {
  const size_t per_epoch = (p.train.size() + kBatchSize - 1) / kBatchSize;
  StepClock<Model> model(config,
                         per_epoch * static_cast<size_t>(config.train.epochs));
  FitOutcome out;
  const ObsTotals before = fit_obs != nullptr ? ReadObs() : ObsTotals{};
  const double t0 = NowSeconds();
  {
    Span span("ledger/fit");
    model.Fit(p.dataset, p.train);
  }
  out.fit_s = NowSeconds() - t0;
  if (fit_obs != nullptr) Accumulate(Delta(before, ReadObs()), fit_obs);
  // Step latencies, skipping each epoch's first interval (it spans the
  // epoch boundary: negative sampling and any checkpoint write).
  const std::vector<uint64_t>& st = model.stamps();
  std::vector<uint64_t> steps;
  for (size_t c = 1; c < st.size(); ++c) {
    if (c % per_epoch != 0) steps.push_back(st[c] - st[c - 1]);
  }
  out.step_p50_ns = Percentile(&steps, 50);
  out.step_p90_ns = Percentile(&steps, 90);
  const double t1 = NowSeconds();
  eval::EvalResult r;
  {
    Span span("ledger/eval");
    r = eval::EvaluateRanking(model, p.dataset.num_users, p.dataset.num_items,
                              p.exclude, p.test_items, {kRecallCutoff});
  }
  out.eval_s = NowSeconds() - t1;
  out.recall = r.At(kRecallCutoff).recall;
  return out;
}

// Per-cycle values: each Model::Fit plus its evaluation is one window of
// the run.
struct FitSeries {
  std::vector<double> fit_s, eval_s, throughput, step_p50_us, step_p90_us;
  ObsTotals fit_obs;
};

// Fits and evaluates repeatedly for about `budget_s` seconds (at least four
// cycles), calling `between` after each cycle. Every fit must reach the
// same, finite recall bit for bit. Throughput counts the evaluation with
// the fit: a user trains and then evaluates, and on train-mf the
// evaluation is about a third of the cycle, so an evaluator regression
// shows in it.
template <typename Model, typename Config>
FitSeries FitFor(const Config& config, const Prepared& p, double budget_s,
                 bool read_obs, std::optional<double>* recall, RunResult* res,
                 const std::function<void()>& between) {
  const double triples_per_fit = static_cast<double>(config.train.epochs) *
                                 static_cast<double>(p.train.size());
  FitSeries s;
  const double start = NowSeconds();
  for (;;) {
    if (s.fit_s.size() >= 4) {
      const double next = Median(s.fit_s) + Median(s.eval_s);
      if (NowSeconds() - start + next > budget_s) break;
    }
    const FitOutcome f =
        FitOnce<Model>(config, p, read_obs ? &s.fit_obs : nullptr);
    s.fit_s.push_back(f.fit_s);
    s.eval_s.push_back(f.eval_s);
    s.throughput.push_back(triples_per_fit / (f.fit_s + f.eval_s));
    s.step_p50_us.push_back(f.step_p50_ns * 1e-3);
    s.step_p90_us.push_back(f.step_p90_ns * 1e-3);
    ++res->attempted;
    const bool finite =
        std::isfinite(f.recall) && f.recall >= 0 && f.recall <= 1;
    if (!recall->has_value() && finite) *recall = f.recall;
    if (!finite || !recall->has_value() ||
        std::memcmp(&f.recall, &recall->value(), sizeof(double)) != 0) {
      ++res->failed;
      res->Fail("recall@50 differs between fits or is not finite");
    }
    between();
  }
  return s;
}

// Serial Scorer::ScoreItems and TopKSelector cost over every evaluated
// user (the two halves of EvaluateRanking's per-user work).
void ProbeEval(const eval::Scorer& scorer, const Prepared& p,
               std::map<std::string, double>* layer) {
  std::vector<float> scores;
  std::vector<uint32_t> top;
  eval::TopKSelector selector;
  selector.Reserve(kRecallCutoff);
  top.reserve(kRecallCutoff);
  uint64_t score_ns = 0, select_ns = 0;
  for (size_t u = 0; u < p.dataset.num_users; ++u) {
    if (p.test_items[u].empty()) continue;
    uint64_t t0 = obs::NowNanos();
    scorer.ScoreItems(static_cast<uint32_t>(u), &scores);
    for (uint32_t item : p.exclude[u]) {
      scores[item] = -std::numeric_limits<float>::infinity();
    }
    uint64_t t1 = obs::NowNanos();
    selector.Select(scores.data(), scores.size(), kRecallCutoff, &top);
    uint64_t t2 = obs::NowNanos();
    score_ns += t1 - t0;
    select_ns += t2 - t1;
  }
  if (obs::TraceRecorder* r = obs::TraceRecorder::Current()) {
    const uint64_t now = obs::NowNanos();
    r->Emit("ledger/eval/score", now - score_ns - select_ns, score_ns);
    r->Emit("ledger/eval/select", now - select_ns, select_ns);
  }
  (*layer)["eval.score_ms"] = static_cast<double>(score_ns) * 1e-6;
  (*layer)["eval.select_ms"] = static_cast<double>(select_ns) * 1e-6;
}

// Builds the workload's graph as Pup::Fit does and records its size, its
// build time and the share of graph rows one batch gathers.
void ProbeGraph(const core::PupConfig& config, const Prepared& p,
                const Batches& b, std::map<std::string, double>* layer) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (const data::Interaction& x : p.train) pairs.emplace_back(x.user, x.item);
  graph::HeteroGraphOptions gopts;
  gopts.use_category_nodes = config.use_category;
  gopts.use_price_nodes = config.use_price;
  gopts.add_self_loops = config.self_loops;
  gopts.max_neighbors = config.max_neighbors;
  gopts.neighbor_seed = config.train.seed;
  std::vector<double> build_ms;
  std::unique_ptr<graph::HeteroGraph> g;
  for (int r = 0; r < 3; ++r) {
    Span span("ledger/graph_build");
    const double t0 = NowSeconds();
    g = std::make_unique<graph::HeteroGraph>(
        p.dataset.num_users, p.dataset.num_items, p.dataset.num_categories,
        p.dataset.num_price_levels, pairs, p.dataset.item_category,
        p.dataset.item_price_level, gopts);
    build_ms.push_back((NowSeconds() - t0) * 1e3);
  }
  const double nodes = static_cast<double>(g->num_nodes());
  (*layer)["graph.build_ms"] = Median(build_ms);
  (*layer)["graph.nodes"] = nodes;
  (*layer)["graph.nnz"] = static_cast<double>(g->adjacency().nnz());
  // Distinct rows of F = tanh(ÂE) the decoder gathers for one batch: the
  // ceiling on what batch-local propagation could skip.
  std::vector<uint8_t> seen(g->num_nodes());
  double share = 0;
  for (size_t i = 0; i < b.users.size(); ++i) {
    std::fill(seen.begin(), seen.end(), 0);
    size_t distinct = 0;
    auto mark = [&](uint32_t node) {
      distinct += seen[node] == 0;
      seen[node] = 1;
    };
    for (size_t k = 0; k < b.users[i].size(); ++k) {
      const uint32_t pi = b.pos[i][k], ni = b.neg[i][k];
      mark(g->UserNode(b.users[i][k]));
      mark(g->ItemNode(pi));
      mark(g->ItemNode(ni));
      mark(g->CategoryNode(p.dataset.item_category[pi]));
      mark(g->CategoryNode(p.dataset.item_category[ni]));
      mark(g->PriceNode(p.dataset.item_price_level[pi]));
      mark(g->PriceNode(p.dataset.item_price_level[ni]));
    }
    share += static_cast<double>(distinct) / nodes;
  }
  (*layer)["graph.batch_row_share"] =
      share / static_cast<double>(b.users.size());
}

// `Model` is core::Pup or models::BprMf, `config` its configuration.
template <typename Model, typename Config>
void RunTrainWorkload(const Args& args, const TrainSpec& spec,
                      const Config& config, obs::TraceRecorder* recorder,
                      RunResult* res) {
  ThreadPool::SetGlobalThreads(static_cast<int>(kTrainThreads));
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const double t0 = NowSeconds();
    Prepared q = PrepareTrainData(spec.scale, args.seed);
    setup_s.push_back(NowSeconds() - t0);
    return q;
  };
  const Prepared p = timed_setup();
  std::optional<double> recall;

  if (!args.trace) {
    FitSeries s = FitFor<Model>(config, p, args.seconds, false, &recall, res,
                                [&] { timed_setup(); });
    while (setup_s.size() < kSetupReps) timed_setup();
    res->end_to_end = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_per_s", BestDecile(s.throughput, false), "1/s"},
        {"latency_p50_us", BestDecile(s.step_p50_us, true), "us"},
        {"latency_p90_us", BestDecile(s.step_p90_us, true), "us"},
    };
    return;
  }

  SetTracing(recorder, false);
  FitSeries plain =
      FitFor<Model>(config, p, args.seconds / 2, false, &recall, res, [] {});
  SetTracing(recorder, true);
  FitSeries s =
      FitFor<Model>(config, p, args.seconds / 2, true, &recall, res, [] {});
  auto& L = res->layer;
  const ObsTotals& d = s.fit_obs;
  const double batches = d["train/batches"];
  L["trace.overhead"] = BestDecile(s.throughput, false) /
                        BestDecile(plain.throughput, false);
  L["train.recall_at_50"] = recall.value_or(0);
  L["train.batch_step_ms"] = TimerMeanNs(d, "train/batch_step") * 1e-6;
  L["train.epoch_ms"] = TimerMeanNs(d, "train/epoch") * 1e-6;
  L["train.sample_epoch_ms"] = TimerMeanNs(d, "train/sample_epoch") * 1e-6;
  L["threadpool.parallel_fors_per_step"] =
      Ratio(d["threadpool/parallel_fors"], batches);
  L["threadpool.task_wait_ms_per_step"] =
      Ratio(d["threadpool/task_wait.sum"], batches) * 1e-6;
  L["eval.users_per_s"] = static_cast<double>(p.eval_users) / Median(s.eval_s);
  L["ckpt.write_ms"] = TimerMeanNs(d, "ckpt/write") * 1e-6;
  L["ckpt.bytes_per_save"] =
      Ratio(d["ckpt/bytes_written"], d["ckpt/files_written"]);

  // Probes: the sampler, the eval split, the graph and one training step.
  const train::TrainOptions& topt = config.train;
  std::unique_ptr<data::NegativeSampler> sampler = data::MakeNegativeSampler(
      p.dataset, p.train, topt.seed, topt.neg_sampling, topt.neg_alpha);
  std::vector<data::BprTriple> triples;
  std::vector<double> sample_ms;
  for (int r = 0; r < 5; ++r) {
    Span span("ledger/sample_epoch");
    const double t0 = NowSeconds();
    sampler->SampleEpoch(topt.negative_rate, &triples);
    sample_ms.push_back((NowSeconds() - t0) * 1e3);
  }
  L["data.sample_epoch_ms"] = Median(sample_ms);
  const Batches batches_probe = SplitBatches(triples);

  StepClock<Model> fitted(config, 0, &batches_probe);
  fitted.Fit(p.dataset, p.train);
  ProbeEval(fitted, p, &L);
  const StepProbe& probe = fitted.probe();
  L["la.spmm_calls_per_step"] = probe.spmm_calls_per_step;
  if constexpr (std::is_same_v<Model, core::Pup>) {
    ProbeGraph(config, p, batches_probe, &L);
    // Each SpMM call multiplies Â (nnz entries) by one branch's dense
    // embeddings; calls split evenly over the two branches, whose widths
    // sum to embedding_dim. Bytes assume no cache reuse: the CSR arrays,
    // one dense row read per nonzero, one output row per node.
    const double nnz = L["graph.nnz"], nodes = L["graph.nodes"];
    const double dim = static_cast<double>(config.embedding_dim);
    L["la.spmm_flop_per_step"] = probe.spmm_calls_per_step * nnz * dim;
    L["la.spmm_bytes_per_step"] =
        probe.spmm_calls_per_step *
        ((nnz * 8 + (nodes + 1) * 4) + (nnz + nodes) * 4 * dim / 2);
  }
  L["ag.step_ms"] = probe.step_ms;
  L["ag.forward_ms"] = probe.forward_ms;
  L["ag.backward_ms"] = probe.backward_ms;
  L["ag.optimizer_ms"] = probe.optimizer_ms;
  L["ag.allocs_per_step"] = probe.allocs_per_step;
  L["ag.tape_nodes_per_step"] = probe.tape_nodes;
  L["ag.probe_fidelity"] = Ratio(probe.step_ms, L["train.batch_step_ms"]);
  if (probe.allocs_per_step != 0) {
    res->Fail("training step allocated in steady state");
  }
}

// ---------------------------------------------------------------------------
// Serving workloads.

struct ServeSetup {
  std::shared_ptr<const serve::ServingIndex> index;  // Served (maybe int8).
  std::shared_ptr<const serve::ServingIndex> exact;  // f32 reference.
  std::vector<std::vector<uint32_t>> exclude;
  serve::Trace trace;
  uint64_t trace_span_us = 0;  // Native span of one pass over the trace.
  std::string index_path;
};

constexpr double kTraceNativeQps = 1000.0;

ServeSetup PrepareServe(const ServeSpec& spec, uint64_t seed,
                        const std::string& index_path) {
  ServeSetup s;
  data::SyntheticConfig config;
  if (spec.mixed) {
    config = data::SyntheticConfig::YelpLike().Scaled(2.0);
  } else {
    config.num_users = kCatalogUsers;
    config.num_items = kCatalogItems;
    config.num_interactions = kCatalogUsers * 8;
  }
  config.seed = DeriveSeed(seed, 2);
  data::Dataset dataset;
  {
    Span span("ledger/prepare/generate");
    dataset = data::GenerateSynthetic(config);
  }
  {
    Span span("ledger/prepare/quantize");
    CheckOk(data::QuantizeDataset(&dataset, 4,
                                  data::QuantizationScheme::kUniform),
            "price quantization");
  }
  Span span("ledger/prepare/index");
  Rng rng(DeriveSeed(seed, 3));
  la::Matrix users =
      la::Matrix::Gaussian(dataset.num_users, kServeDim, 0.3f, &rng);
  la::Matrix items =
      la::Matrix::Gaussian(dataset.num_items, kServeDim, 0.3f, &rng);
  std::vector<float> bias(dataset.num_items);
  for (float& b : bias) b = rng.NextFloat() * 0.2f;
  models::DotScorer scorer(std::move(users), std::move(items), std::move(bias));
  s.exact = std::make_shared<const serve::ServingIndex>(
      serve::ServingIndex::Freeze(scorer, dataset, "ledger"));
  s.index = s.exact;
  if (spec.quant != la::QuantMode::kOff) {
    Result<serve::ServingIndex> q = s.exact->WithQuant(spec.quant);
    CheckOk(q.status(), "index quantization");
    s.index = std::make_shared<const serve::ServingIndex>(std::move(q).value());
  }
  CheckOk(s.index->Save(index_path), "saving the index");
  s.index_path = index_path;
  s.exclude = dataset.UserItemLists();

  serve::TraceConfig tc;
  tc.num_users = s.index->num_users();
  tc.num_items = s.index->num_items();
  tc.num_events = 200000;
  tc.zipf_s = 1.1;
  tc.rerank_frac = spec.mixed ? 0.10 : 0.0;
  tc.cold_frac = spec.mixed ? 0.05 : 0.0;
  tc.arrival_qps = kTraceNativeQps;
  tc.seed = DeriveSeed(seed, 4);
  s.trace = serve::GenerateTrace(tc);
  s.trace_span_us = s.trace.events.back().arrival_us +
                    static_cast<uint64_t>(1e6 / kTraceNativeQps);
  return s;
}

// Latency sample classes.
enum : uint8_t { kHit = 0, kFull = 1, kRerank = 2, kCold = 3 };

struct LatencySample {
  uint32_t ns;
  uint8_t cls;
};

// A served reply kept for verification after the run.
struct Recorded {
  uint64_t event = 0;
  uint32_t n = 0;
  uint32_t items[kTopK] = {};
  float scores[kTopK] = {};
};

// One client thread's buffers; everything preallocated before timing.
struct ClientBuffers {
  ClientBuffers(size_t max_samples, size_t max_records)
      : samples(max_samples), lag(max_samples), records(max_records) {}
  SampleBuffer<LatencySample> samples;
  SampleBuffer<uint32_t> lag;
  SampleBuffer<Recorded> records;
  uint64_t sent = 0;
  uint64_t dropped = 0;
  uint64_t short_replies = 0;
  uint64_t last_done_ns = 0;
};

class ServeHarness {
 public:
  ServeHarness(const ServeSpec& spec, ServeSetup* setup)
      : spec_(spec), setup_(setup) {
    serve::ServerOptions opt;
    opt.max_batch = 32;
    opt.batch_timeout_us = 100;
    opt.cache_capacity = spec.mixed ? kCacheCapacity : 0;
    opt.max_k = 100;
    server_ = std::make_unique<serve::Server>(setup->index, opt);
  }

  // One closed-loop window: requests per second, and the latency of the
  // requests that reached the ranker (cache misses).
  struct Window {
    double qps = 0, ranked_p50_us = 0, ranked_p90_us = 0;
  };

  // Closed loop: kServeClients threads send back to back for `seconds`.
  // With `keep`, samples and records accumulate for the run. With
  // spec.mixed, client 0 reloads the index from its file halfway through,
  // while the others keep sending: every window pays for one load, one
  // cache invalidation and the refill.
  Window Closed(double seconds, bool keep) {
    std::vector<std::unique_ptr<ClientBuffers>> bufs;
    const size_t cap = keep ? static_cast<size_t>(seconds * 200000) + 1024 : 0;
    for (size_t c = 0; c < kServeClients; ++c) {
      bufs.push_back(
          std::make_unique<ClientBuffers>(cap, cap / kVerifyEvery + 16));
    }
    const uint64_t t0 = obs::NowNanos();
    const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
    const uint64_t reload_at = spec_.mixed ? (t0 + deadline) / 2 : UINT64_MAX;
    RunClients(&bufs, [&](ClientBuffers* b, serve::RequestContext* ctx,
                          serve::Reply* reply) {
      bool reloader = b == bufs[0].get();
      while (obs::NowNanos() < deadline) {
        if (reloader && obs::NowNanos() >= reload_at) {
          Reload();
          reloader = false;
        }
        const uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
        const uint64_t start = obs::NowNanos();
        const uint64_t done = Send(i, ctx, reply, b);
        b->samples.Add({Clamp(done - start), Class(i, *reply)});
        b->last_done_ns = done;
      }
    });
    uint64_t completed = 0, end = t0;
    std::vector<uint32_t> ranked;
    for (auto& b : bufs) {
      completed += b->sent;
      end = std::max(end, b->last_done_ns);
      for (const LatencySample& s : b->samples.data()) {
        if (s.cls != kHit) ranked.push_back(s.ns);
      }
    }
    if (keep) Merge(&bufs, &closed_);
    Window w;
    w.qps = static_cast<double>(completed) /
            (static_cast<double>(end - t0) * 1e-9);
    w.ranked_p50_us = Percentile(&ranked, 50) * 1e-3;
    w.ranked_p90_us = Percentile(&ranked, 90) * 1e-3;
    return w;
  }

  struct OpenResult {
    std::vector<uint32_t> latency_ns, lag_ns;
    uint64_t sent = 0, dropped = 0, short_replies = 0;
    double offered_qps = 0, achieved_qps = 0;
  };

  // Open loop at `qps` for `seconds`: requests fall due on the trace's
  // Poisson schedule rescaled to the rate; kServeClients dispatchers each
  // wait for the next due request and send it. Latency runs from the due
  // time, so a stall also delays every request queued behind it. A request
  // still unsent one second after it fell due is dropped (failed).
  OpenResult Open(double qps, double seconds) {
    const size_t expect = static_cast<size_t>(qps * seconds * 1.2) + 1024;
    std::vector<std::unique_ptr<ClientBuffers>> bufs;
    for (size_t c = 0; c < kServeClients; ++c) {
      bufs.push_back(
          std::make_unique<ClientBuffers>(expect, expect / kVerifyEvery + 16));
    }
    std::atomic<uint64_t> next_j{0};
    const uint64_t window_ns = static_cast<uint64_t>(seconds * 1e9);
    // Requests continue the trace where the last phase stopped; the due
    // times come from the trace's arrival gaps from this phase's start.
    const uint64_t base = next_.load();
    const uint64_t t0 = obs::NowNanos() + 1000000;  // 1 ms to spin up.
    const double ns_per_native_us = 1e3 * kTraceNativeQps / qps;
    const size_t n = setup_->trace.events.size();
    RunClients(&bufs, [&](ClientBuffers* b, serve::RequestContext* ctx,
                          serve::Reply* reply) {
      for (;;) {
        const uint64_t j = next_j.fetch_add(1, std::memory_order_relaxed);
        const uint64_t native_us = (j / n) * setup_->trace_span_us +
                                   setup_->trace.events[j % n].arrival_us;
        const uint64_t due_off = static_cast<uint64_t>(
            static_cast<double>(native_us) * ns_per_native_us);
        if (due_off >= window_ns) break;
        const uint64_t due = t0 + due_off;
        WaitUntil(due);
        const uint64_t start = obs::NowNanos();
        if (start > due + 1000000000ULL) {
          ++b->dropped;
          continue;
        }
        const uint64_t done = Send(base + j, ctx, reply, b);
        b->samples.Add({Clamp(done - due), Class(base + j, *reply)});
        b->lag.Add(Clamp(start - due));
        b->last_done_ns = done;
      }
    });
    next_.fetch_add(next_j.load());
    OpenResult r;
    uint64_t completed = 0, end = t0;
    for (auto& b : bufs) {
      for (const LatencySample& s : b->samples.data()) {
        r.latency_ns.push_back(s.ns);
      }
      for (uint32_t l : b->lag.data()) r.lag_ns.push_back(l);
      r.sent += b->sent;
      r.dropped += b->dropped;
      r.short_replies += b->short_replies;
      completed += b->sent;
      end = std::max(end, b->last_done_ns);
      for (const Recorded& rec : b->records.data()) records_.push_back(rec);
    }
    r.offered_qps = static_cast<double>(r.sent + r.dropped) / seconds;
    r.achieved_qps =
        static_cast<double>(completed) / (static_cast<double>(end - t0) * 1e-9);
    return r;
  }

  std::vector<LatencySample>& closed() { return closed_; }
  uint64_t closed_sent() const { return closed_sent_; }
  uint64_t closed_short() const { return closed_short_; }
  std::vector<double>& reload_ms() { return reload_ms_; }
  std::vector<double>& load_ms() { return load_ms_; }
  uint64_t reload_failures() const { return reload_failures_; }

  // Checks every recorded reply against the offline reference ranking of
  // the exact f32 index. Returns the mean top-k overlap; counts mismatches.
  double Verify(uint64_t* checked, uint64_t* mismatched) {
    const serve::ServingIndex& exact = *setup_->exact;
    serve::IndexScorer scorer(&exact);
    eval::TopKSelector selector;
    selector.Reserve(kTopK);
    std::vector<float> scores, pool_scores;
    std::vector<uint32_t> top;
    const bool bitwise = spec_.quant == la::QuantMode::kOff;
    double overlap = 0;
    for (const Recorded& rec : records_) {
      const serve::TraceEvent& ev =
          setup_->trace.events[rec.event % setup_->trace.events.size()];
      // Reference ranking, best first: the cold-start prior for unknown
      // users (no exclusions), the pool restricted to the user's f32 scores
      // for re-rank, and the f32 scores minus the user's items otherwise.
      std::vector<uint32_t> ids;
      std::vector<float> ref_scores;
      if (ev.scenario == serve::Scenario::kColdStart) {
        scores = exact.cold_start_prior();
      } else {
        scorer.ScoreItems(ev.user, &scores);
      }
      if (ev.scenario == serve::Scenario::kRerank) {
        const auto& pool = setup_->trace.rerank_pools[ev.pool];
        pool_scores.clear();
        for (uint32_t id : pool) pool_scores.push_back(scores[id]);
        selector.Select(pool_scores.data(), pool.size(), kTopK, &top);
        for (uint32_t t : top) {
          ids.push_back(pool[t]);
          ref_scores.push_back(pool_scores[t]);
        }
      } else {
        if (ev.scenario == serve::Scenario::kFullRanking) {
          for (uint32_t id : setup_->exclude[ev.user]) {
            scores[id] = -std::numeric_limits<float>::infinity();
          }
        }
        selector.Select(scores.data(), scores.size(), kTopK, &top);
        for (uint32_t t : top) {
          if (std::isinf(scores[t]) && scores[t] < 0) break;
          ids.push_back(t);
          ref_scores.push_back(scores[t]);
        }
      }
      ++*checked;
      const std::vector<uint32_t> served(rec.items, rec.items + rec.n);
      const double o = eval::OverlapRecall(ids, served);
      overlap += o;
      bool ok = rec.n == ids.size();
      const bool quantized_full =
          !bitwise && ev.scenario == serve::Scenario::kFullRanking;
      if (ok && !quantized_full) {
        for (uint32_t r = 0; r < rec.n; ++r) {
          ok = ok && rec.items[r] == ids[r] &&
               std::memcmp(&rec.scores[r], &ref_scores[r], sizeof(float)) == 0;
        }
      }
      if (!ok) ++*mismatched;
    }
    return records_.empty()
               ? 1.0
               : overlap / static_cast<double>(records_.size());
  }

 private:
  static uint32_t Clamp(uint64_t ns) {
    return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
  }

  // Sleeps until shortly before `due`, then spins: a yield or a short
  // sleep would add a microsecond of wake-up jitter to every latency.
  static void WaitUntil(uint64_t due) {
    for (;;) {
      const uint64_t now = obs::NowNanos();
      if (now >= due) return;
      if (due - now > 200000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - now - 100000));
      } else {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
  }

  uint8_t Class(uint64_t i, const serve::Reply& reply) const {
    if (reply.cache_hit) return kHit;
    const serve::TraceEvent& ev =
        setup_->trace.events[i % setup_->trace.events.size()];
    if (reply.served == serve::Scenario::kColdStart) return kCold;
    return ev.scenario == serve::Scenario::kRerank ? kRerank : kFull;
  }

  template <typename Body>
  void RunClients(std::vector<std::unique_ptr<ClientBuffers>>* bufs,
                  Body body) {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < bufs->size(); ++c) {
      ClientBuffers* b = (*bufs)[c].get();
      threads.emplace_back([this, b, &body] {
        serve::RequestContext ctx(*server_);
        serve::Reply reply;
        reply.Reserve(server_->options().max_k);
        body(b, &ctx, &reply);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Sends trace event `i` and returns the time Rank returned. Then, outside
  // the timed part, it checks the reply length and keeps 1 in 64 replies
  // for verification.
  uint64_t Send(uint64_t i, serve::RequestContext* ctx, serve::Reply* reply,
                ClientBuffers* b) {
    const serve::Trace& trace = setup_->trace;
    const serve::TraceEvent& ev = trace.events[i % trace.events.size()];
    serve::Request req;
    req.user = ev.user;
    req.k = kTopK;
    req.scenario = ev.scenario;
    size_t available = setup_->index->num_items();
    if (ev.scenario == serve::Scenario::kRerank) {
      req.candidates = &trace.rerank_pools[ev.pool];
      available = req.candidates->size();
    } else if (ev.user < setup_->exclude.size()) {
      req.exclude = &setup_->exclude[ev.user];
      available -= req.exclude->size();
    }
    const bool traced = i % kVerifyEvery == 0;
    uint64_t done = 0;
    {
      std::optional<Span> span;
      if (traced) span.emplace("ledger/serve/rank");
      server_->Rank(req, ctx, reply);
      done = obs::NowNanos();
    }
    ++b->sent;
    if (reply->items.size() != std::min<size_t>(kTopK, available)) {
      ++b->short_replies;
    }
    if (traced) {
      Recorded rec;
      rec.event = i;
      rec.n = static_cast<uint32_t>(
          std::min<size_t>(reply->items.size(), kTopK));
      std::copy_n(reply->items.begin(), rec.n, rec.items);
      std::copy_n(reply->scores.begin(), rec.n, rec.scores);
      b->records.Add(rec);
    }
    return done;
  }

  // Called by one client thread at a time; the results are read after the
  // clients are joined.
  void Reload() {
    Span span("ledger/index/reload");
    const uint64_t t0 = obs::NowNanos();
    Result<serve::ServingIndex> loaded = [&] {
      Span load_span("ledger/index/load");
      return serve::ServingIndex::Load(setup_->index_path);
    }();
    const uint64_t t1 = obs::NowNanos();
    if (!loaded.ok()) {
      ++reload_failures_;
      return;
    }
    server_->Reload(
        std::make_shared<const serve::ServingIndex>(std::move(loaded).value()));
    const uint64_t t2 = obs::NowNanos();
    load_ms_.push_back(static_cast<double>(t1 - t0) * 1e-6);
    reload_ms_.push_back(static_cast<double>(t2 - t0) * 1e-6);
  }

  void Merge(std::vector<std::unique_ptr<ClientBuffers>>* bufs,
             std::vector<LatencySample>* out) {
    for (auto& b : *bufs) {
      out->insert(out->end(), b->samples.data().begin(),
                  b->samples.data().end());
      closed_sent_ += b->sent;
      closed_short_ += b->short_replies;
      for (const Recorded& rec : b->records.data()) records_.push_back(rec);
    }
  }

  const ServeSpec& spec_;
  ServeSetup* setup_;
  std::unique_ptr<serve::Server> server_;
  std::atomic<uint64_t> next_{0};    // Next trace position.
  uint64_t reload_failures_ = 0;
  std::vector<double> reload_ms_, load_ms_;
  std::vector<LatencySample> closed_;
  uint64_t closed_sent_ = 0, closed_short_ = 0;
  std::vector<Recorded> records_;
};

// An untraced run is all closed loop: one warm-up window, then measured
// windows of kWindowS each. Its latency is that of the requests that reach
// the ranker, as waiting callers see it. Cache hits take well under a
// microsecond, drift by tens of percent with the neighbours' memory
// traffic, and are reported per layer (serve.hit_p50_us). The open-loop
// ladder (low, middle, high rung) runs in traced runs only, after a
// shorter closed loop: at a fixed rate below capacity the vCPUs idle
// between requests, and the batch leader's 100 us timed wait then pays the
// host's wake-up latency, which switched between two modes from one run
// to the next (serve-mixed low-rung p50 about 175 us or about 280 us, p90
// 250 us or 900 us), while closed-loop latency stayed within 10%.
constexpr double kWindowS = 0.5;
constexpr double kClosedShare = 0.4;  // Of a traced run.
constexpr double kLadderShare[3] = {0.35, 0.15, 0.1};

void RunServeWorkload(const Args& args, const ServeSpec& spec,
                      const std::string& index_path,
                      obs::TraceRecorder* recorder, RunResult* res) {
  ThreadPool::SetGlobalThreads(1);
  std::vector<double> setup_s;
  auto timed_setup = [&](const std::string& path) {
    const double t0 = NowSeconds();
    ServeSetup q = PrepareServe(spec, args.seed, path);
    setup_s.push_back(NowSeconds() - t0);
    return q;
  };
  ServeSetup setup = timed_setup(index_path);
  const double S = args.seconds;

  double untraced_qps = 0;
  if (args.trace) {
    // Same closed-loop measurement with tracing off, for trace.overhead.
    SetTracing(recorder, false);
    ServeHarness plain(spec, &setup);
    plain.Closed(kWindowS, false);
    std::vector<double> qps;
    for (int w = 0; w < 3; ++w) qps.push_back(plain.Closed(kWindowS, false).qps);
    untraced_qps = BestDecile(qps, false);
    SetTracing(recorder, true);
  }

  ServeHarness h(spec, &setup);
  const ObsTotals before = ReadObs();
  const double closed_s = S * (args.trace ? kClosedShare : 1);
  const double start = NowSeconds();
  h.Closed(kWindowS, false);  // Warm-up: cache, page faults, branches.
  std::vector<double> closed_qps, ranked_p50_us, ranked_p90_us;
  for (int w = 0; w < 3 || NowSeconds() - start + kWindowS <= closed_s; ++w) {
    const ServeHarness::Window win = h.Closed(kWindowS, true);
    closed_qps.push_back(win.qps);
    ranked_p50_us.push_back(win.ranked_p50_us);
    ranked_p90_us.push_back(win.ranked_p90_us);
    // After every third window, within the run's time. The served index
    // file stays as it is: serve-mixed reloads from it.
    if (!args.trace && w % 3 == 2) timed_setup(index_path + ".rep");
  }
  const ObsTotals closed_obs = Delta(before, ReadObs());
  ServeHarness::OpenResult ladder[3];
  if (args.trace) {
    for (int r = 0; r < 3; ++r) {
      ladder[r] = h.Open(spec.ladder_qps[r], S * kLadderShare[r]);
    }
  }
  const ObsTotals all_obs = Delta(before, ReadObs());

  uint64_t checked = 0, mismatched = 0;
  const double overlap = h.Verify(&checked, &mismatched);
  uint64_t open_sent = 0, open_failed = 0;
  for (const auto& r : ladder) {
    open_sent += r.sent + r.dropped;
    open_failed += r.dropped + r.short_replies;
  }
  res->attempted += h.closed_sent() + open_sent + h.reload_ms().size() +
                    h.reload_failures();
  res->failed +=
      h.closed_short() + open_failed + mismatched + h.reload_failures();
  if (mismatched > 0 && spec.quant == la::QuantMode::kOff) {
    res->Fail(std::to_string(mismatched) + " of " + std::to_string(checked) +
              " verified replies differ from the offline reference");
  }
  if (overlap < kMinOverlap) res->Fail("top-k overlap below floor");
  if (h.closed_short() + open_failed > 0) res->Fail("short or dropped replies");
  if (h.reload_failures() > 0) res->Fail("index reload failed");

  if (!args.trace) {
    while (setup_s.size() < kSetupReps) timed_setup(index_path + ".rep");
    res->end_to_end = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_per_s", BestDecile(closed_qps, false), "1/s"},
        {"latency_p50_us", BestDecile(ranked_p50_us, true), "us"},
        {"latency_p90_us", BestDecile(ranked_p90_us, true), "us"},
    };
    return;
  }

  auto& lo = ladder[0];
  auto& mid = ladder[1];

  auto& L = res->layer;
  L["trace.overhead"] = BestDecile(closed_qps, false) / untraced_qps;
  L["serve.topk_overlap"] = overlap;
  const ObsTotals& d = closed_obs;
  L["serve.cache_hit_ratio"] =
      Ratio(d["serve/cache_hit"], d["serve/cache_hit"] + d["serve/cache_miss"]);
  L["serve.batch_occupancy"] =
      Ratio(d["serve/batch_occupancy.sum"], d["serve/batch_occupancy.count"]);
  L["serve.batch_exec_us"] = TimerMeanNs(d, "serve/batch") * 1e-3;
  L["serve.quant.fastscan_us"] =
      TimerMeanNs(d, "serve/quant/fastscan") * 1e-3;
  L["serve.quant.post_scan_us"] =
      TimerMeanNs(d, "serve/quant/post_scan") * 1e-3;
  L["serve.quant.select_us"] = TimerMeanNs(d, "serve/quant/select") * 1e-3;
  L["la.score_batch_calls_per_req"] =
      Ratio(all_obs["la/score_batch"], all_obs["serve/requests"]);
  L["la.score_quant_calls_per_req"] =
      Ratio(all_obs["la/score_quant"], all_obs["serve/requests"]);

  std::vector<uint32_t> all, by_cls[4];
  double miss_sum = 0;
  size_t misses = 0;
  for (const LatencySample& s : h.closed()) {
    all.push_back(s.ns);
    by_cls[s.cls].push_back(s.ns);
    if (s.cls != kHit) {
      miss_sum += s.ns;
      ++misses;
    }
  }
  L["serve.wait_us"] =
      (Ratio(miss_sum, static_cast<double>(misses)) -
       TimerMeanNs(d, "serve/batch")) * 1e-3;
  L["serve.hit_p50_us"] = Percentile(&by_cls[kHit], 50) * 1e-3;
  L["serve.full_p50_us"] = Percentile(&by_cls[kFull], 50) * 1e-3;
  L["serve.rerank_p50_us"] = Percentile(&by_cls[kRerank], 50) * 1e-3;
  L["serve.cold_p50_us"] = Percentile(&by_cls[kCold], 50) * 1e-3;
  L["serve.closed_p50_us"] = Percentile(&all, 50) * 1e-3;
  L["serve.closed_p90_us"] = Percentile(&all, 90) * 1e-3;
  L["serve.closed_p99_us"] = Percentile(&all, 99) * 1e-3;
  L["serve.closed_samples"] = static_cast<double>(all.size());
  L["serve.open_p99_us"] = Percentile(&lo.latency_ns, 99) * 1e-3;
  L["serve.open_p999_us"] = Percentile(&lo.latency_ns, 99.9) * 1e-3;
  L["serve.open_samples"] = static_cast<double>(lo.latency_ns.size());
  L["serve.gen_lag_p99_us"] = Percentile(&lo.lag_ns, 99) * 1e-3;
  L["serve.ladder_mid_p90_us"] = Percentile(&mid.latency_ns, 90) * 1e-3;
  L["serve.ladder_hi_p90_us"] = Percentile(&ladder[2].latency_ns, 90) * 1e-3;
  double slo = 0;
  for (int r = 0; r < 3; ++r) {
    const bool within =
        Percentile(&ladder[r].latency_ns, 90) * 1e-3 <= spec.p90_limit_us;
    const bool keeps_up =
        ladder[r].achieved_qps >= 0.98 * ladder[r].offered_qps;
    if (within && keeps_up && ladder[r].dropped == 0) slo = spec.ladder_qps[r];
  }
  L["serve.slo_qps"] = slo;
  L["serve.closed_sent"] = static_cast<double>(h.closed_sent());
  L["serve.closed_failed"] = static_cast<double>(h.closed_short());
  L["serve.open_sent"] = static_cast<double>(open_sent);
  L["serve.open_failed"] = static_cast<double>(open_failed);
  if (spec.mixed) {
    L["serve.reload_ms"] = Median(h.reload_ms());
    L["ckpt.index_load_ms"] = Median(h.load_ms());
  }
}

// ---------------------------------------------------------------------------
// Output.

std::string Num(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : "0";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  obs::SetEnabled(false);
  // 2^20 events: enough for every span a traced run emits at the ladder's
  // top rate, so the recorder never drops.
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (args.trace) {
    recorder = std::make_unique<obs::TraceRecorder>(size_t{1} << 20);
    SetTracing(recorder.get(), true);
  }

  // Checkpoints and the saved index live here for the run only.
  const fs::path scratch = fs::path(args.work_dir) /
                           (args.workload + "-" + std::to_string(::getpid()));
  fs::create_directories(scratch, ec);

  RunResult res;
  const TrainSpec train_spec = TrainSpecFor(args.workload);
  if (args.workload == "train-pup") {
    RunTrainWorkload<core::Pup>(args, train_spec, PupConfigFor(train_spec),
                                recorder.get(), &res);
  } else if (args.workload == "train-mf") {
    RunTrainWorkload<models::BprMf>(
        args, train_spec, MfConfigFor(train_spec, (scratch / "ckpt").string()),
        recorder.get(), &res);
  } else {
    RunServeWorkload(args, ServeSpecFor(args.workload),
                     (scratch / "index.pupc").string(), recorder.get(), &res);
  }
  SetTracing(nullptr, false);
  fs::remove_all(scratch, ec);

  std::vector<Metric> metrics = res.end_to_end;
  if (args.trace) {
    res.layer["trace.dropped"] = static_cast<double>(recorder->dropped());
    res.layer["trace.events"] = static_cast<double>(recorder->size());
    if (recorder->dropped() > 0) res.Fail("trace recorder dropped events");
    metrics.clear();
    for (const auto& [name, unit] : PerLayerNames()) {
      metrics.push_back({name, res.layer[name], unit});
    }
    const std::string path = args.trace_out.empty()
                                 ? (fs::path(args.work_dir) /
                                    ("trace-" + args.workload + ".json"))
                                       .string()
                                 : args.trace_out;
    if (!recorder->WriteJson(path)) res.Fail("could not write " + path);
    std::printf("trace %s\n", path.c_str());
  }
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      res.Fail(m.name + " is not finite");
      m.value = 0;
    }
  }
  if (res.attempted == 0) res.attempted = 1;
  for (const std::string& note : res.notes) {
    std::fprintf(stderr, "bench_ledger: check failed: %s\n", note.c_str());
  }

  for (const Metric& m : metrics) {
    std::printf("%s %s %s %s\n", args.workload.c_str(), m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str());
  }
  const simd::Isa isa = simd::ActiveIsa();
  const std::string host =
      std::string("{\"nproc\":") +
      std::to_string(std::thread::hardware_concurrency()) + ",\"isa\":\"" +
      simd::IsaName(isa) + "\",\"compiler\":\"" +
      JsonEscape(PUP_LEDGER_COMPILER) +
      "\",\"build_type\":\"" + PUP_LEDGER_BUILD_TYPE + "\",\"rev\":\"" +
      JsonEscape(args.rev) + "\"}";
  std::printf("host %s\n", host.c_str());

  std::string json = std::string("{\"correct\": ") +
                     (res.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + Num(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  if (!args.out.empty()) {
    std::ofstream out(args.out);
    out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
        << ", \"seconds\": " << Num(args.seconds)
        << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"host\": " << host
        << ", \"result\": " << json << "}\n";
    if (!out) {
      std::fprintf(stderr, "bench_ledger: could not write %s\n",
                   args.out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
