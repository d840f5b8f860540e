#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "la/kernels.h"

namespace pup::serve {
namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// The leader's ParallelFor over the kernel pool hands each pool thread
// one claim loop over the batch's chunk cursor.
constexpr size_t kOneClaimLoopPerThread = 1;

// How often a wait checks its condition, a CPU pause apart, before it
// starts yielding the CPU to other threads.
constexpr int kSpinsBeforeYield = 256;

// Waits until `done()` holds: spins briefly, then yields between checks.
// The thread waited on may share this one's vCPU (a host can have fewer
// vCPUs than callers), so a wait never spins without bound.
template <typename Done>
void SpinThenYieldUntil(const Done& done) {
  for (int i = 0; i < kSpinsBeforeYield; ++i) {
    if (done()) return;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  while (!done()) std::this_thread::yield();
}

// Copies the selected ranking into the reply, best first, dropping the
// tail once only masked (-inf) entries remain — an excluded item is never
// served, so a sparse catalog may legally return fewer than k items.
// PUP_HOT: bounded by max_k; reply buffers are Reserve'd by the caller.
void EmitRanked(const float* scores, const std::vector<uint32_t>& top,
                const std::vector<uint32_t>* remap, Reply* reply) {
  reply->items.clear();
  reply->scores.clear();
  for (uint32_t id : top) {
    if (scores[id] == kNegInf) break;
    // NOLINTNEXTLINE(pup-hot-alloc): <= max_k entries, Reserve'd buffer.
    reply->items.push_back(remap != nullptr ? (*remap)[id] : id);
    // NOLINTNEXTLINE(pup-hot-alloc): <= max_k entries, Reserve'd buffer.
    reply->scores.push_back(scores[id]);
  }
}

// Answers a malformed request: InvalidArgument and no items. Rejection
// is the error path, so building the message may allocate.
void Reject(const char* why, Reply* reply) {
  reply->status = Status::InvalidArgument(why);
  reply->items.clear();
  reply->scores.clear();
}

// Why `req`, to be served as `sc`, does not fit `index`, or nullptr when
// it does. Checked against the snapshot the batch runs on, since a
// Reload may shrink the catalog after the request was admitted.
// PUP_HOT: one pass over the request's own id lists.
const char* CheckItemIds(const ServingIndex& index, const Request& req,
                         Scenario sc) {
  const size_t n = index.num_items();
  if (sc == Scenario::kRerank) {
    if (req.candidates == nullptr || req.candidates->empty()) {
      return "kRerank request without candidates";
    }
    const std::vector<uint32_t>& cand = *req.candidates;
    for (size_t j = 0; j < cand.size(); ++j) {
      if (cand[j] >= n) return "candidate item id out of range";
      if (j > 0 && cand[j] <= cand[j - 1]) {
        return "candidates must be sorted ascending and unique";
      }
    }
    return nullptr;
  }
  if (req.exclude != nullptr) {
    for (uint32_t id : *req.exclude) {
      if (id >= n) return "excluded item id out of range";
    }
  }
  return nullptr;
}

}  // namespace

RequestContext::RequestContext(const Server& server) : server_(&server) {
  const ServerOptions& opt = server.options();
  const std::shared_ptr<const ServingIndex> index = server.snapshot();
  claimed_.reserve(opt.max_batch);
  batch_.users = la::Matrix(opt.max_batch, index->dim());
  batch_.scores = la::Matrix(opt.max_batch, index->num_items());
  scratch_scores_.reserve(index->num_items());
  topk_.reserve(opt.max_k);
  // Quantized scratch, reserved for whichever quant mode needs more (an
  // int4 query splits into two stride-sized halves, which can exceed the
  // int8 buffer at small dims) — so a later Reload onto a differently
  // quantized index never allocates in the request loop.
  const size_t d = index->dim();
  const size_t i8 = la::QuantizedTable::RowStrideFor(la::QuantMode::kInt8, d);
  const size_t i4 =
      2 * la::QuantizedTable::RowStrideFor(la::QuantMode::kInt4, d);
  qquery_.codes.reserve(i8 > i4 ? i8 : i4);
  qacc_.reserve(index->num_items());
  // rerank_factor >= 1 (checked by Server), so this covers the max_k
  // selections of every other path too.
  const size_t survivors = opt.rerank_factor * opt.max_k;
  survivors_.reserve(survivors);
  rerank_scores_.reserve(survivors);
  selector_.Reserve(survivors);
  // Counted last, once nothing above can throw, so the destructor always
  // undoes it.
  std::lock_guard<std::mutex> lock(server.mu_);
  ++server.contexts_;
}

RequestContext::~RequestContext() {
  std::lock_guard<std::mutex> lock(server_->mu_);
  --server_->contexts_;
  // A waiting leader may now hold every live context. Notified before
  // the lock drops: once the count is zero ~Server may run.
  server_->cv_.notify_all();
}

Server::Server(std::shared_ptr<const ServingIndex> index,
               ServerOptions options)
    : options_(options), index_(std::move(index)) {
  PUP_CHECK(index_ != nullptr);
  PUP_CHECK(options_.max_batch >= 1);
  PUP_CHECK(options_.max_k >= 1);
  PUP_CHECK(options_.rerank_factor >= 1);
  queue_.reserve(options_.max_batch);
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ResultCache>(
        options_.cache_capacity, index_->num_users(), options_.max_k);
  }
  obs::Registry& reg = obs::Registry::Global();
  requests_ = reg.GetCounter("serve/requests");
  batches_ = reg.GetCounter("serve/batches");
  cache_hits_ = reg.GetCounter("serve/cache_hit");
  cache_misses_ = reg.GetCounter("serve/cache_miss");
  occupancy_ = reg.GetHistogram("serve/batch_occupancy");
  batch_timer_ = reg.GetTimer("serve/batch");
  queue_wait_ = reg.GetTimer("serve/queue_wait");
}

Server::~Server() {
  std::lock_guard<std::mutex> lock(mu_);
  PUP_CHECK_MSG(contexts_ == 0, "a RequestContext outlives its Server");
}

std::shared_ptr<const ServingIndex> Server::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_;
}

uint64_t Server::generation() const {
  return generation_.load(std::memory_order_relaxed);
}

void Server::Reload(std::shared_ptr<const ServingIndex> index) {
  PUP_CHECK(index != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    index_ = std::move(index);
    // Bump under mu_ so a batch leader's (snapshot, generation) pair is
    // always consistent; readers use the relaxed atomic.
    generation_.fetch_add(1, std::memory_order_relaxed);
  }
  if (cache_ != nullptr) cache_->Invalidate();
}

// PUP_HOT: the serving request loop — no allocation in steady state; the
// only waits are the batching monitor and the batch's own callers.
void Server::Rank(const Request& req, RequestContext* ctx, Reply* reply) {
  PUP_CHECK_MSG(ctx->server_ == this,
                "RequestContext was built on another Server");
  requests_->Add(1);
  reply->cache_hit = false;
  const char* bad = nullptr;
  if (req.k < 1 || req.k > options_.max_k) {
    bad = "request k outside [1, max_k]";
  } else if (req.scenario != Scenario::kFullRanking &&
             req.scenario != Scenario::kRerank &&
             req.scenario != Scenario::kColdStart) {
    bad = "unknown request scenario";
  }
  if (bad != nullptr) {
    Reject(bad, reply);
    return;
  }
  if (cache_ != nullptr && req.scenario == Scenario::kFullRanking) {
    if (cache_->Lookup(req.user, req.k,
                       generation_.load(std::memory_order_relaxed),
                       &reply->items, &reply->scores)) {
      reply->status = Status::OK();
      reply->served = Scenario::kFullRanking;
      reply->cache_hit = true;
      cache_hits_->Add(1);
      return;
    }
    cache_misses_->Add(1);
  }

  Slot slot;
  slot.req = &req;
  slot.reply = reply;
  // From asking to join the forming batch until this caller's batch is
  // claimed (leader) or published to it (rider). A timer with no trace
  // span: every request past the cache waits here, re-ranks and cold
  // starts too, so its spans were 53% of a traced serve-mixed ledger
  // run's events and overflowed the run's trace buffer. The wait still
  // shows in a trace as the gap before a caller's first span.
  std::optional<obs::ScopedTimer> queue_wait(std::in_place, queue_wait_);
  std::unique_lock<std::mutex> lk(mu_);  // NOLINT(pup-hot-transitive): micro-batch rendezvous — one bounded wait buys batched execution (see docs/serving.md).
  // A full forming batch means its leader is about to claim it; wait for
  // the claim rather than overflowing the fixed-capacity queue.
  while (queue_.size() >= options_.max_batch) cv_.wait(lk);  // NOLINT(pup-hot-transitive): micro-batch rendezvous — one bounded wait buys batched execution (see docs/serving.md).
  // The forming batch can grow no further: it is full, or it holds every
  // live context (each caller has its own), so no other caller exists
  // that could still join.
  const auto closed = [this] {
    return queue_.size() >= std::min(options_.max_batch, contexts_);
  };
  const bool leader = queue_.empty();
  queue_.push_back(&slot);  // NOLINT(pup-hot-alloc): capacity max_batch.
  if (!leader) {
    if (closed()) cv_.notify_all();
    cv_.wait(lk, [&] { return slot.batch != nullptr; });  // NOLINT(pup-hot-transitive): micro-batch rendezvous — one bounded wait buys batched execution (see docs/serving.md).
    lk.unlock();
    queue_wait.reset();
    // A rejected rider's reply was written before it woke, and it never
    // touches the leader's context.
    if (slot.rejected) return;
    ServeSlot(slot, /*lead=*/false, ctx);
    // The rider's last touch of the leader's context.
    slot.batch->readers.fetch_sub(1, std::memory_order_release);
    return;
  }
  if (options_.batch_timeout_us > 0 && options_.max_batch > 1) {
    cv_.wait_for(lk, std::chrono::microseconds(options_.batch_timeout_us),  // NOLINT(pup-hot-transitive): micro-batch rendezvous — one bounded wait buys batched execution (see docs/serving.md).
                 closed);
  }
  // Claim the batch and its snapshot. New arrivals start forming the next
  // batch as soon as the lock drops, and it runs beside this one.
  // NOLINTNEXTLINE(pup-hot-alloc): <= max_batch pointers, Reserve'd.
  ctx->claimed_.assign(queue_.begin(), queue_.end());
  queue_.clear();
  const std::shared_ptr<const ServingIndex> index = index_;
  const uint64_t generation = generation_.load(std::memory_order_relaxed);
  lk.unlock();
  queue_wait.reset();
  cv_.notify_all();

  obs::ScopedTimer span(batch_timer_, "serve/batch");
  batches_->Add(1);
  occupancy_->Observe(ctx->claimed_.size());
  StageBatch(*index, generation, ctx);
  // Publish: every rider wakes to a fully staged batch, in one pass.
  lk.lock();  // NOLINT(pup-hot-transitive): micro-batch rendezvous — one bounded wait buys batched execution (see docs/serving.md).
  for (Slot* s : ctx->claimed_) s->batch = &ctx->batch_;
  lk.unlock();
  cv_.notify_all();
  // From here on the riders own their slots; the leader reads only its
  // own and the batch.
  ServeSlot(slot, /*lead=*/true, ctx);
  // The batch, its score rows and `index` stay alive until the last
  // rider has finished with them.
  const Batch& b = ctx->batch_;
  SpinThenYieldUntil(
      [&b] { return b.readers.load(std::memory_order_acquire) == 0; });
}

// PUP_HOT: everything a claimed batch needs before its riders wake —
// the unknown-user fallback, item-id checks and rejections, and the
// f32 full-ranking users staged for the batch's one f32 pass.
void Server::StageBatch(const ServingIndex& index, uint64_t generation,
                        RequestContext* ctx) {
  Batch& b = ctx->batch_;
  b.index = &index;
  b.generation = generation;
  const size_t d = index.dim();
  // At most one staged row per claimed request; trimmed below.
  b.users.ResizeNoZero(ctx->claimed_.size(), d);
  const Slot* leader = ctx->claimed_.front();  // It queued first.
  uint32_t readers = 0;
  size_t rows = 0;
  for (Slot* s : ctx->claimed_) {
    Scenario sc = s->req->scenario;
    // Unknown users cannot be scored from the user table: fall back to
    // the price-level popularity prior (full ranking) or to the prior
    // restricted to the candidate pool (re-rank).
    if (sc == Scenario::kFullRanking && s->req->user >= index.num_users()) {
      sc = Scenario::kColdStart;
    }
    s->served = sc;
    // A rider whose ids do not fit this snapshot is answered before any
    // scoring; the rest of the batch is served as if it were absent.
    if (const char* bad = CheckItemIds(index, *s->req, sc)) {
      s->rejected = true;
      Reject(bad, s->reply);
      continue;
    }
    if (s != leader) ++readers;
    // Quantized indexes take the fastscan + re-rank path per request
    // (the scan is a memory-bound integer pass, not a batched f32 dot).
    if (sc == Scenario::kFullRanking && !index.quantized()) {
      s->row = rows++;
      const float* src = index.user_vecs().Row(s->req->user);
      std::copy(src, src + d, b.users.Row(s->row));
    }
  }
  const size_t n = index.num_items();
  b.users.ResizeNoZero(rows, d);  // Keeps the staged rows.
  b.scores.ResizeNoZero(rows, n);
  b.grain = la::ScoreItemsForUsersGrain(rows, d);
  b.chunks = rows == 0 ? 0 : static_cast<uint32_t>((n + b.grain - 1) / b.grain);
  b.next_chunk.store(0, std::memory_order_relaxed);
  b.chunks_done.store(0, std::memory_order_relaxed);
  b.readers.store(readers, std::memory_order_relaxed);
}

// PUP_HOT: claims chunks of the batch's f32 pass off its cursor until
// none remain, scoring each on the calling thread.
void Server::ScoreChunks(Batch* b) {
  const ServingIndex& index = *b->index;
  const size_t n = index.num_items();
  uint32_t scored = 0;
  for (;;) {
    const uint32_t c = b->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= b->chunks) break;
    const size_t lo = c * b->grain;
    la::ScoreItemsForUsers(index.item_vecs(), b->users, index.bias(), lo,
                           std::min(n, lo + b->grain), &b->scores);
    ++scored;
  }
  // One add per claim loop, after its last chunk, so the count reaches
  // b->chunks only once every chunk is scored.
  if (scored > 0) b->chunks_done.fetch_add(scored, std::memory_order_release);
}

// PUP_HOT: one caller's part of its batch — its claims of the batch's f32
// pass (the leader's run through the kernel pool too), then its own
// request, served from the batch's snapshot on the caller's own context.
void Server::ServeSlot(const Slot& slot, bool lead, RequestContext* ctx) {
  Batch* b = slot.batch;
  const ServingIndex& index = *b->index;
  const bool from_pass = !slot.rejected &&
                         slot.served == Scenario::kFullRanking &&
                         !index.quantized();
  if (b->chunks > 0) {
    PUP_OBS_SCOPED_TIMER("serve/full/score");
    if (lead) {
      ThreadPool& pool = ThreadPool::Global();
      pool.ParallelFor(0, std::min<size_t>(pool.num_threads(), b->chunks),
                       kOneClaimLoopPerThread, [b](size_t lo, size_t hi) {
                         for (size_t t = lo; t < hi; ++t) ScoreChunks(b);
                       });
    } else {
      ScoreChunks(b);
    }
    // Only a request ranked from the pass waits for its last chunk.
    if (from_pass) {
      SpinThenYieldUntil([b] {
        return b->chunks_done.load(std::memory_order_acquire) == b->chunks;
      });
    }
  }
  if (slot.rejected) return;
  const Request& req = *slot.req;
  Reply* reply = slot.reply;
  if (from_pass) {
    ServeFullRanking(index, b->generation, b->scores.Row(slot.row), req,
                     reply, ctx);
  } else if (slot.served == Scenario::kFullRanking) {
    ServeFullRankingQuantized(index, b->generation, req, reply, ctx);
  } else if (slot.served == Scenario::kRerank) {
    ServeSubset(index, req, reply, ctx);
  } else {
    ServePrior(index, req, reply, ctx);
  }
  reply->status = Status::OK();
  reply->served = slot.served;
}

// PUP_HOT: quantized full ranking — int8/int4 fastscan over the code
// table, survivor selection at rerank_factor * k, exact-f32 re-rank of
// the survivors. Every stage is bitwise-deterministic across backends,
// thread counts, and batch schedules: the scan accumulates in exact
// int32, the dequant epilogue is fixed-order scalar math, survivor
// membership comes from the strict (score desc, id asc) selector, and
// the re-rank dot runs in a pinned 16-virtual-lane shape on every ISA.
void Server::ServeFullRankingQuantized(const ServingIndex& index,
                                       uint64_t generation, const Request& req,
                                       Reply* reply, RequestContext* ctx) {
  const size_t n = index.num_items();
  const la::QuantizedTable& qt = index.quant_items();
  const float* user = index.user_vecs().Row(req.user);
  {
    PUP_OBS_SCOPED_TIMER("serve/quant/fastscan");
    ctx->qquery_.Prepare(user, qt);
    // NOLINTNEXTLINE(pup-hot-alloc): <= num_items entries, Reserve'd buffer.
    ctx->scratch_scores_.resize(n);
    // NOLINTNEXTLINE(pup-hot-alloc): <= num_items entries, Reserve'd buffer.
    ctx->qacc_.resize(n);
    la::ScoreItemsQuantized(qt, ctx->qquery_, index.bias(), ctx->qacc_.data(),
                            ctx->scratch_scores_.data());
  }
  PUP_OBS_SCOPED_TIMER("serve/quant/post_scan");
  float* approx = ctx->scratch_scores_.data();
  if (req.exclude != nullptr) {
    for (uint32_t id : *req.exclude) approx[id] = kNegInf;
  }
  const size_t budget = options_.rerank_factor * static_cast<size_t>(req.k);
  {
    PUP_OBS_SCOPED_TIMER("serve/quant/select");
    ctx->selector_.Select(approx, n, budget < n ? budget : n,
                          &ctx->survivors_);
  }
  // Survivor order is membership only; sorting by id makes the final
  // selector's positional tie-break an id tie-break, the same strict
  // (score desc, id asc) order every other serving path emits.
  std::sort(ctx->survivors_.begin(), ctx->survivors_.end());
  // NOLINTNEXTLINE(pup-hot-alloc): <= rerank_factor * max_k, Reserve'd.
  ctx->rerank_scores_.resize(ctx->survivors_.size());
  la::ScoreItemsRerank(index.item_vecs(), user, index.bias(),
                       ctx->survivors_.data(), ctx->survivors_.size(),
                       ctx->rerank_scores_.data());
  // Re-apply the exclusion mask: an excluded id reaches the survivor set
  // only when the unmasked catalog is smaller than the budget, but it
  // must never be served with its true score.
  for (size_t j = 0; j < ctx->survivors_.size(); ++j) {
    if (approx[ctx->survivors_[j]] == kNegInf) {
      ctx->rerank_scores_[j] = kNegInf;
    }
  }
  ctx->selector_.Select(ctx->rerank_scores_.data(), ctx->survivors_.size(),
                        req.k, &ctx->topk_);
  EmitRanked(ctx->rerank_scores_.data(), ctx->topk_, &ctx->survivors_, reply);
  if (cache_ != nullptr) {
    cache_->Insert(req.user, req.k, generation, reply->items, reply->scores);
  }
}

// PUP_HOT: full-catalog ranking for one request; `scores` is the
// request's own row of its batch's score matrix, masked in place.
void Server::ServeFullRanking(const ServingIndex& index, uint64_t generation,
                              float* scores, const Request& req, Reply* reply,
                              RequestContext* ctx) {
  {
    PUP_OBS_SCOPED_TIMER("serve/full/select");
    if (req.exclude != nullptr) {
      for (uint32_t id : *req.exclude) scores[id] = kNegInf;
    }
    ctx->selector_.Select(scores, index.num_items(), req.k, &ctx->topk_);
    EmitRanked(scores, ctx->topk_, nullptr, reply);
  }
  if (cache_ != nullptr) {
    cache_->Insert(req.user, req.k, generation, reply->items, reply->scores);
  }
}

// PUP_HOT: candidate re-rank. The pool is sorted ascending and unique
// (CheckItemIds), so selecting by pool position breaks ties exactly like
// the full ranking breaks them by item id — rerank results are the full
// ranking restricted to the pool, bitwise.
void Server::ServeSubset(const ServingIndex& index, const Request& req,
                         Reply* reply, RequestContext* ctx) {
  const std::vector<uint32_t>& cand = *req.candidates;
  // NOLINTNEXTLINE(pup-hot-alloc): <= num_items floats, Reserve'd buffer.
  ctx->scratch_scores_.resize(cand.size());
  if (req.user < index.num_users()) {
    la::ScoreItemsSubset(index.item_vecs(), index.user_vecs().Row(req.user),
                         index.bias(), cand.data(), cand.size(),
                         ctx->scratch_scores_.data());
  } else {
    const std::vector<float>& prior = index.cold_start_prior();
    for (size_t j = 0; j < cand.size(); ++j) {
      ctx->scratch_scores_[j] = prior[cand[j]];
    }
  }
  ctx->selector_.Select(ctx->scratch_scores_.data(), cand.size(), req.k,
                        &ctx->topk_);
  EmitRanked(ctx->scratch_scores_.data(), ctx->topk_, &cand, reply);
}

// PUP_HOT: cold-start fallback — ranks the price-level popularity prior,
// honoring exclusions, through the same selector as every other path.
void Server::ServePrior(const ServingIndex& index, const Request& req,
                        Reply* reply, RequestContext* ctx) {
  const std::vector<float>& prior = index.cold_start_prior();
  // NOLINTNEXTLINE(pup-hot-alloc): <= num_items floats, Reserve'd buffer.
  ctx->scratch_scores_.assign(prior.begin(), prior.end());
  if (req.exclude != nullptr) {
    for (uint32_t id : *req.exclude) ctx->scratch_scores_[id] = kNegInf;
  }
  ctx->selector_.Select(ctx->scratch_scores_.data(), prior.size(), req.k,
                        &ctx->topk_);
  EmitRanked(ctx->scratch_scores_.data(), ctx->topk_, nullptr, reply);
}

}  // namespace pup::serve
