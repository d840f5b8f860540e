#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/check.h"
#include "la/kernels.h"

namespace pup::serve {
namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

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

RequestContext::RequestContext(const Server& server) {
  const ServerOptions& opt = server.options();
  const std::shared_ptr<const ServingIndex> index = server.snapshot();
  batch_.reserve(opt.max_batch);
  full_rows_.reserve(opt.max_batch);
  batch_users_ = la::Matrix(opt.max_batch, index->dim());
  batch_scores_ = la::Matrix(opt.max_batch, index->num_items());
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
// only waits are the batching monitor and the serialized batch execution.
void Server::Rank(const Request& req, RequestContext* ctx, Reply* reply) {
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
  std::unique_lock<std::mutex> lk(mu_);  // NOLINT(pup-hot-transitive): micro-batch rendezvous — one bounded wait buys batched execution (see docs/serving.md).
  // A full forming batch means its leader is about to claim it; wait for
  // the claim rather than overflowing the fixed-capacity queue.
  while (queue_.size() >= options_.max_batch) cv_.wait(lk);  // NOLINT(pup-hot-transitive): micro-batch rendezvous — one bounded wait buys batched execution (see docs/serving.md).
  const bool leader = queue_.empty();
  queue_.push_back(&slot);  // NOLINT(pup-hot-alloc): capacity max_batch.
  if (!leader) {
    if (queue_.size() >= options_.max_batch) cv_.notify_all();
    cv_.wait(lk, [&] { return slot.done; });  // NOLINT(pup-hot-transitive): micro-batch rendezvous — one bounded wait buys batched execution (see docs/serving.md).
    return;
  }
  if (options_.batch_timeout_us > 0 && options_.max_batch > 1) {
    cv_.wait_for(lk, std::chrono::microseconds(options_.batch_timeout_us),  // NOLINT(pup-hot-transitive): micro-batch rendezvous — one bounded wait buys batched execution (see docs/serving.md).
                 [&] { return queue_.size() >= options_.max_batch; });
  }
  // Claim the batch. New arrivals start forming the next one as soon as
  // the lock drops; execution below is serialized on exec_mu_, so under
  // load the next leader collects every request that queues meanwhile.
  // NOLINTNEXTLINE(pup-hot-alloc): <= max_batch pointers, Reserve'd.
  ctx->batch_.assign(queue_.begin(), queue_.end());
  queue_.clear();
  const std::shared_ptr<const ServingIndex> index = index_;
  const uint64_t generation = generation_.load(std::memory_order_relaxed);
  lk.unlock();
  cv_.notify_all();
  {
    std::lock_guard<std::mutex> exec(exec_mu_);  // NOLINT(pup-hot-transitive): micro-batch rendezvous — one bounded wait buys batched execution (see docs/serving.md).
    ExecuteBatch(*index, generation, ctx);
  }
  lk.lock();  // NOLINT(pup-hot-transitive): micro-batch rendezvous — one bounded wait buys batched execution (see docs/serving.md).
  for (Slot* s : ctx->batch_) s->done = true;
  lk.unlock();
  cv_.notify_all();
}

// PUP_HOT: scores one claimed micro-batch — one ScoreItemsForUsers call
// for the full-ranking rows, per-request subset/prior scoring for the
// rest.
void Server::ExecuteBatch(const ServingIndex& index, uint64_t generation,
                          RequestContext* ctx) {
  obs::ScopedTimer span(batch_timer_, "serve/batch");
  batches_->Add(1);
  occupancy_->Observe(ctx->batch_.size());
  const size_t d = index.dim();
  ctx->full_rows_.clear();
  for (size_t i = 0; i < ctx->batch_.size(); ++i) {
    Slot* s = ctx->batch_[i];
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
    // Quantized indexes take the fastscan + re-rank path per request
    // (the scan is a memory-bound integer pass, not a batched f32 dot).
    if (sc == Scenario::kFullRanking && !index.quantized()) {
      // NOLINTNEXTLINE(pup-hot-alloc): <= max_batch entries, Reserve'd.
      ctx->full_rows_.push_back(static_cast<uint32_t>(i));
    }
  }
  if (!ctx->full_rows_.empty()) {
    ctx->batch_users_.ResizeNoZero(ctx->full_rows_.size(), d);
    for (size_t r = 0; r < ctx->full_rows_.size(); ++r) {
      const Request& rq = *ctx->batch_[ctx->full_rows_[r]]->req;
      const float* src = index.user_vecs().Row(rq.user);
      std::copy(src, src + d, ctx->batch_users_.Row(r));
    }
    la::ScoreItemsForUsers(index.item_vecs(), ctx->batch_users_, index.bias(),
                           &ctx->batch_scores_);
    for (size_t r = 0; r < ctx->full_rows_.size(); ++r) {
      Slot* s = ctx->batch_[ctx->full_rows_[r]];
      ServeFullRanking(index, generation, ctx->batch_scores_.Row(r),
                       *s->req, s->reply, ctx);
    }
  }
  for (Slot* s : ctx->batch_) {
    if (s->rejected) continue;
    if (s->served == Scenario::kFullRanking && index.quantized()) {
      ServeFullRankingQuantized(index, generation, *s->req, s->reply, ctx);
    } else if (s->served == Scenario::kRerank) {
      ServeSubset(index, *s->req, s->reply, ctx);
    } else if (s->served == Scenario::kColdStart) {
      ServePrior(index, *s->req, s->reply, ctx);
    }
    s->reply->status = Status::OK();
    s->reply->served = s->served;
  }
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
// request's private row of the batch score matrix, masked in place.
void Server::ServeFullRanking(const ServingIndex& index, uint64_t generation,
                              float* scores, const Request& req, Reply* reply,
                              RequestContext* ctx) {
  const size_t n = index.num_items();
  if (req.exclude != nullptr) {
    for (uint32_t id : *req.exclude) scores[id] = kNegInf;
  }
  ctx->selector_.Select(scores, n, req.k, &ctx->topk_);
  EmitRanked(scores, ctx->topk_, nullptr, reply);
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
