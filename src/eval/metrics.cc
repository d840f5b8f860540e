#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"
#include "eval/topk.h"
#include "obs/registry.h"

namespace pup::eval {
namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

struct Accumulator {
  double recall_sum = 0.0;
  double ndcg_sum = 0.0;
};

// Per-chunk selection scratch: the bounded-heap selector replaced the
// historical iota + partial_sort over the whole catalog (O(n log k) and
// allocation-free per user instead of an n-entry index build per cutoff);
// eval_test pins the bitwise ordering parity, tie-break included.
struct TopKScratch {
  TopKSelector selector;
  std::vector<uint32_t> top;
};

// The cutoffs once each: a repeated cutoff names one metric.
std::vector<int> DistinctCutoffs(const std::vector<int>& cutoffs) {
  std::vector<int> ks = cutoffs;
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  return ks;
}

// Core per-user update shared by both evaluation modes. `scores` already
// has non-candidates masked to -inf. One selection at the largest cutoff
// serves them all: the strict (score desc, id asc) order makes every
// top-k a prefix of the top-K, so each cutoff scores its own prefix.
void AccumulateUser(const std::vector<float>& scores,
                    const std::vector<uint32_t>& test,
                    const std::vector<int>& ks, TopKScratch* scratch,
                    std::map<int, Accumulator>* acc) {
  size_t max_k = 0;
  for (int k : ks) max_k = std::max(max_k, static_cast<size_t>(k));
  scratch->selector.Select(scores.data(), scores.size(), max_k,
                           &scratch->top);
  const std::vector<uint32_t>& top = scratch->top;
  for (int k : ks) {
    const size_t len = std::min(top.size(), static_cast<size_t>(k));
    int hits = 0;
    double dcg = 0.0;
    for (size_t pos = 0; pos < len; ++pos) {
      if (scores[top[pos]] == kNegInf) break;  // Only masked items remain.
      if (std::binary_search(test.begin(), test.end(), top[pos])) {
        ++hits;
        dcg += 1.0 / std::log2(static_cast<double>(pos) + 2.0);
      }
    }
    Accumulator& a = (*acc)[k];
    a.recall_sum += static_cast<double>(hits) / test.size();
    double idcg = IdealDcg(test.size(), k);
    a.ndcg_sum += idcg > 0.0 ? dcg / idcg : 0.0;
  }
}

// Users per ParallelFor chunk. Fixed (not a function of the pool size)
// so the partial-sum combine order — and therefore the metrics — are
// identical for every thread count > 1; a single-thread pool coalesces
// everything into chunk 0, reproducing the historical serial
// accumulation bitwise.
constexpr size_t kUsersPerChunk = 16;

// Per-chunk metric partial sums and the count of users they cover.
struct ChunkAccumulator {
  std::map<int, Accumulator> acc;
  size_t evaluated = 0;
};

// Combines per-chunk partials in chunk order into the final result;
// `cutoffs` are distinct.
EvalResult CombineChunks(const std::vector<ChunkAccumulator>& partial,
                         const std::vector<int>& cutoffs) {
  size_t evaluated = 0;
  std::map<int, Accumulator> acc;
  for (int k : cutoffs) acc[k] = {};
  for (const ChunkAccumulator& ca : partial) {
    evaluated += ca.evaluated;
    for (int k : cutoffs) {
      auto it = ca.acc.find(k);
      if (it == ca.acc.end()) continue;
      acc[k].recall_sum += it->second.recall_sum;
      acc[k].ndcg_sum += it->second.ndcg_sum;
    }
  }
  EvalResult result;
  result.num_users_evaluated = evaluated;
  for (int k : cutoffs) {
    TopKMetrics m;
    if (evaluated > 0) {
      m.recall = acc[k].recall_sum / static_cast<double>(evaluated);
      m.ndcg = acc[k].ndcg_sum / static_cast<double>(evaluated);
    }
    result.at[k] = m;
  }
  return result;
}

}  // namespace

double Dcg(const std::vector<int>& relevance) {
  double dcg = 0.0;
  for (size_t pos = 0; pos < relevance.size(); ++pos) {
    if (relevance[pos] != 0) {
      dcg += 1.0 / std::log2(static_cast<double>(pos) + 2.0);
    }
  }
  return dcg;
}

double IdealDcg(size_t num_relevant, int k) {
  size_t n = std::min<size_t>(num_relevant, static_cast<size_t>(k));
  double idcg = 0.0;
  for (size_t pos = 0; pos < n; ++pos) {
    idcg += 1.0 / std::log2(static_cast<double>(pos) + 2.0);
  }
  return idcg;
}

EvalResult EvaluateRanking(
    const Scorer& scorer, size_t num_users, size_t num_items,
    const std::vector<std::vector<uint32_t>>& exclude_items,
    const std::vector<std::vector<uint32_t>>& test_items,
    const std::vector<int>& cutoffs) {
  PUP_CHECK_EQ(exclude_items.size(), num_users);
  PUP_CHECK_EQ(test_items.size(), num_users);
  PUP_OBS_SCOPED_TIMER("eval/full_ranking");
  const std::vector<int> ks = DistinctCutoffs(cutoffs);
  const size_t num_chunks =
      (num_users + kUsersPerChunk - 1) / kUsersPerChunk;
  std::vector<ChunkAccumulator> partial(num_chunks);
  // Each chunk of users is scored independently with its own score
  // buffer; Scorer::ScoreItems is const and must be thread-safe.
  ParallelFor(0, num_users, kUsersPerChunk, [&](size_t lo, size_t hi) {
    PUP_OBS_SCOPED_TIMER("eval/chunk");
    ChunkAccumulator* ca = &partial[lo / kUsersPerChunk];
    std::vector<float> scores;
    TopKScratch scratch;
    for (size_t u = lo; u < hi; ++u) {
      const auto& test = test_items[u];
      if (test.empty()) continue;
      ++ca->evaluated;
      scorer.ScoreItems(static_cast<uint32_t>(u), &scores);
      PUP_CHECK_EQ(scores.size(), num_items);
      for (uint32_t item : exclude_items[u]) scores[item] = kNegInf;
      AccumulateUser(scores, test, ks, &scratch, &ca->acc);
    }
    PUP_OBS_COUNT("eval/users_evaluated", ca->evaluated);
  });
  return CombineChunks(partial, ks);
}

EvalResult EvaluateRankingWithCandidates(
    const Scorer& scorer,
    const std::vector<std::vector<uint32_t>>& candidates,
    const std::vector<std::vector<uint32_t>>& test_items,
    const std::vector<int>& cutoffs) {
  PUP_CHECK_EQ(candidates.size(), test_items.size());
  PUP_OBS_SCOPED_TIMER("eval/candidate_ranking");
  const std::vector<int> ks = DistinctCutoffs(cutoffs);
  const size_t num_users = candidates.size();
  const size_t num_chunks =
      (num_users + kUsersPerChunk - 1) / kUsersPerChunk;
  std::vector<ChunkAccumulator> partial(num_chunks);
  ParallelFor(0, num_users, kUsersPerChunk, [&](size_t lo, size_t hi) {
    PUP_OBS_SCOPED_TIMER("eval/chunk");
    ChunkAccumulator* ca = &partial[lo / kUsersPerChunk];
    std::vector<float> scores;
    std::vector<float> masked;
    TopKScratch scratch;
    for (size_t u = lo; u < hi; ++u) {
      const auto& test = test_items[u];
      if (test.empty() || candidates[u].empty()) continue;
      ++ca->evaluated;
      scorer.ScoreItems(static_cast<uint32_t>(u), &scores);
      // Candidate lists come from callers (cold-start pools, external
      // input), so each user's list is validated for real before any
      // score is written into the mask: a PUP_DCHECK vanishes in Release
      // and an out-of-range id would be a silent OOB read/write.
      for (uint32_t item : candidates[u]) {
        PUP_CHECK_MSG(item < scores.size(),
                      "candidate item id out of range for scorer");
      }
      masked.assign(scores.size(), kNegInf);
      for (uint32_t item : candidates[u]) {
        masked[item] = scores[item];
      }
      AccumulateUser(masked, test, ks, &scratch, &ca->acc);
    }
    PUP_OBS_COUNT("eval/users_evaluated", ca->evaluated);
  });
  return CombineChunks(partial, ks);
}

}  // namespace pup::eval
