// pup::serve — the online ranking front end.
//
// A Server answers synchronous top-K requests over a frozen ServingIndex
// with cross-user micro-batching: the first thread to arrive at an empty
// batch becomes the leader and waits for companions until the batch holds
// max_batch callers or every live RequestContext of the server, or until
// batch_timeout_us passes; it then claims and stages the batch, and
// publishes it to its riders. Every caller in the batch — the leader, its
// riders and, through the leader, the kernel pool — then claims item-row
// chunks of the batch's one f32 pass (la::ScoreItemsForUsers: item tiles
// outer, users inner, so the item table is read from memory once per
// batch), and each caller finishes its own request on its own
// RequestContext. Batches run concurrently, each on its own callers plus
// the pool (docs/serving.md).
//
// Determinism contract (docs/serving.md): for a fixed index and SIMD
// backend, the reply for a request is a pure function of the request —
// independent of thread count, batch schedule, cache state, and which
// requests it shared a batch with. The scoring kernels guarantee the
// scores (shared row-dot primitive per backend) and eval::TopKSelector
// guarantees the ordering (score desc, ties to smaller id), so served
// rankings are bitwise-identical to the offline eval ranking of the same
// index.
//
// Quantized serving (docs/quantization.md): when the index carries an
// int8/int4 table, full rankings run as an exact-int32 fastscan over the
// code table, take the top rerank_factor * k survivors by approximate
// score, and re-rank the survivors at f32 through a pinned-16-lane dot.
// That path carries a STRONGER determinism contract than the f32 dot:
// the reply is bitwise-identical across SIMD backends too, not just per
// backend.
//
// Zero-alloc steady state: all scoring and staging buffers live in the
// caller-owned RequestContext, reply buffers are bounded by max_k, and
// the cache is fully preallocated — after warmup a request performs no
// heap allocation (same contract as training steps; serve_test pins it).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "eval/topk.h"
#include "la/matrix.h"
#include "obs/registry.h"
#include "serve/cache.h"
#include "serve/index.h"

namespace pup::serve {

/// Traffic classes the server admits.
enum class Scenario : uint8_t {
  /// Rank every item in the catalog for a known user.
  kFullRanking = 0,
  /// Re-rank a caller-supplied candidate pool for a known user.
  kRerank = 1,
  /// No usable user state: rank by the price-level popularity prior.
  kColdStart = 2,
};

/// One ranking request. Borrowed pointers must outlive the Rank call. A
/// request that breaks a rule below gets an InvalidArgument reply.
struct Request {
  uint32_t user = 0;
  /// Result size; must be in [1, ServerOptions::max_k].
  uint32_t k = 10;
  Scenario scenario = Scenario::kFullRanking;
  /// Candidate pool for kRerank: non-empty, sorted ascending, unique, ids
  /// < num_items. Required for kRerank, ignored otherwise.
  const std::vector<uint32_t>* candidates = nullptr;
  /// Item ids to exclude (the user's seen items), ids < num_items.
  /// Optional; applies to kFullRanking and kColdStart.
  const std::vector<uint32_t>* exclude = nullptr;
};

/// A served ranking, best first. May hold fewer than k items when the
/// catalog (minus exclusions / candidates) runs out.
struct Reply {
  /// OK for a served request. InvalidArgument for a malformed one (k
  /// outside [1, max_k], an unknown scenario, an exclude or candidate id
  /// outside the catalog, or an unsorted, duplicated or missing candidate
  /// pool); such a reply has no items and is never cached.
  Status status;
  std::vector<uint32_t> items;
  std::vector<float> scores;
  /// Scenario actually served (kColdStart for unknown-user fallback).
  Scenario served = Scenario::kFullRanking;
  bool cache_hit = false;

  /// Pre-sizes the buffers so steady-state replies never allocate.
  void Reserve(size_t max_k) {
    items.reserve(max_k);
    scores.reserve(max_k);
  }
};

struct ServerOptions {
  /// Largest micro-batch one scoring pass covers; 1 disables cross-user
  /// batching.
  size_t max_batch = 32;
  /// Longest a batch leader waits for companions (0 = fire immediately;
  /// occupancy then comes from natural queueing only). A batch that holds
  /// every live RequestContext, or max_batch callers, fires at once: no
  /// other caller exists that could still join it.
  uint64_t batch_timeout_us = 100;
  /// Hot-user result cache entries; 0 disables the cache.
  size_t cache_capacity = 0;
  /// Largest admissible k; sizes every reply/cache/selector buffer.
  size_t max_k = 100;
  /// Quantized path only: survivors kept for the exact-f32 re-rank stage
  /// are min(num_items, rerank_factor * k). Larger values trade QPS for
  /// recall; must be >= 1. Ignored when the index is not quantized.
  size_t rerank_factor = 4;
};

class Server;

/// Per-thread scoring scratch: batch staging, score matrices, selector
/// state. Constructing one allocates everything up front; a thread reuses
/// it across requests so the request loop stays allocation-free. The
/// server counts its live contexts: a forming batch that holds all of
/// them closes without waiting out batch_timeout_us, so a context that
/// will send no more requests should be destroyed, not kept idle. A
/// context serves only the server it was built on and must not outlive
/// it (both checked).
class RequestContext {
 public:
  explicit RequestContext(const Server& server);
  ~RequestContext();

  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;
  RequestContext(RequestContext&&) = delete;
  RequestContext& operator=(RequestContext&&) = delete;

 private:
  friend class Server;

  const Server* server_;  ///< The server this context counts toward.

  /// One published micro-batch, held by its leader's context and read by
  /// every caller in it. The leader fills it before publishing; after
  /// that, callers touch only the atomics, their own score rows, and
  /// what the leader staged.
  struct Batch {
    /// The snapshot the leader claimed under the server's mutex; the
    /// leader keeps it alive until the last rider has finished.
    const ServingIndex* index = nullptr;
    uint64_t generation = 0;
    la::Matrix users;   ///< (f32 full-ranking rows, dim) staging.
    la::Matrix scores;  ///< (f32 full-ranking rows, num_items) scores.
    size_t grain = 0;   ///< Item rows per chunk of the f32 pass.
    uint32_t chunks = 0;
    /// Claim cursor, on its own cache line: every claim writes it, while
    /// waiting callers poll the counts below.
    alignas(64) std::atomic<uint32_t> next_chunk{0};
    /// Chunks scored, added once by each claim loop as it ends.
    alignas(64) std::atomic<uint32_t> chunks_done{0};
    std::atomic<uint32_t> readers{0};  ///< Riders still reading.
  };

  struct Slot {
    const Request* req = nullptr;
    Reply* reply = nullptr;
    Scenario served = Scenario::kFullRanking;
    bool rejected = false;  ///< Does not fit the batch's index snapshot.
    /// Set by the leader once the batch is staged; a rider wakes on it.
    Batch* batch = nullptr;
    size_t row = 0;  ///< This request's row of batch->scores (f32 full).
  };

  std::vector<Slot*> claimed_;  ///< Claimed slots (leader only).
  Batch batch_;                 ///< The batch this context leads.
  std::vector<float> scratch_scores_;  ///< Subset / prior scoring buffer.
  std::vector<uint32_t> topk_;
  eval::TopKSelector selector_;  ///< Each of a request's selections (R*max_k).

  // Quantized-path scratch (sized for either quant mode up front, so a
  // Reload onto a quantized index stays allocation-free).
  la::QuantizedQuery qquery_;          ///< Per-request quantized user codes.
  std::vector<int32_t> qacc_;          ///< Exact int32 fastscan dots.
  std::vector<uint32_t> survivors_;    ///< Top R*k approx ids, sorted by id.
  std::vector<float> rerank_scores_;   ///< Exact f32 survivor scores.
};

/// Thread-safe serving front end over an immutable index snapshot.
class Server {
 public:
  Server(std::shared_ptr<const ServingIndex> index, ServerOptions options);
  /// Every RequestContext built on this server must be destroyed first.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Ranks synchronously; may coalesce with concurrent callers into one
  /// batched scoring pass. `ctx` must have been built on this server and
  /// must not be shared between threads;
  /// `reply` should be Reserve'd to max_k by the caller once. A malformed
  /// request sets reply->status to InvalidArgument and never aborts;
  /// k and the scenario are checked on admission, item ids against the
  /// snapshot the request's batch runs on.
  void Rank(const Request& req, RequestContext* ctx, Reply* reply);

  /// Swaps in a freshly loaded index, bumps the generation, and
  /// invalidates the cache. In-flight batches finish on the snapshot they
  /// started with; later requests see only the new index.
  void Reload(std::shared_ptr<const ServingIndex> index);

  /// The index snapshot current requests rank from.
  std::shared_ptr<const ServingIndex> snapshot() const;

  uint64_t generation() const;
  const ServerOptions& options() const { return options_; }
  /// nullptr when cache_capacity == 0.
  ResultCache* cache() { return cache_.get(); }

 private:
  friend class RequestContext;

  using Batch = RequestContext::Batch;
  using Slot = RequestContext::Slot;

  void StageBatch(const ServingIndex& index, uint64_t generation,
                  RequestContext* ctx);
  static void ScoreChunks(Batch* batch);
  void ServeSlot(const Slot& slot, bool lead, RequestContext* ctx);
  void ServeFullRanking(const ServingIndex& index, uint64_t generation,
                        float* scores, const Request& req, Reply* reply,
                        RequestContext* ctx);
  void ServeFullRankingQuantized(const ServingIndex& index,
                                 uint64_t generation, const Request& req,
                                 Reply* reply, RequestContext* ctx);
  void ServeSubset(const ServingIndex& index, const Request& req,
                   Reply* reply, RequestContext* ctx);
  void ServePrior(const ServingIndex& index, const Request& req, Reply* reply,
                  RequestContext* ctx);

  ServerOptions options_;

  mutable std::mutex mu_;  ///< Guards queue_, contexts_ and index_.
  mutable std::condition_variable cv_;
  std::vector<Slot*> queue_;  ///< Forming batch; capacity max_batch.
  /// Live RequestContexts: each caller in queue_ holds its own, so a
  /// forming batch of this many callers can grow no further.
  mutable size_t contexts_ = 0;
  std::shared_ptr<const ServingIndex> index_;
  std::atomic<uint64_t> generation_{0};

  std::unique_ptr<ResultCache> cache_;

  // Handles resolved once at construction; recording never allocates.
  obs::Counter* requests_;
  obs::Counter* batches_;
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::Histogram* occupancy_;
  obs::Histogram* batch_timer_;
  obs::Histogram* queue_wait_;
};

}  // namespace pup::serve
