// Top-K ranking evaluation: Recall@K and NDCG@K (§V-A1).
//
// Following the protocol of the paper (and He et al., NCF): for every user
// with at least one test item, all items the user has not interacted with
// in training form the candidate set; metrics are averaged over evaluated
// users. A per-user candidate-pool variant supports the cold-start CIR /
// UCIR protocols (§V-F).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace pup::eval {

/// Anything that can score every item for a user. Recommenders implement
/// this; evaluators consume it.
class Scorer {
 public:
  virtual ~Scorer() = default;

  /// Writes a score for each item (higher = better) into `out`, resized to
  /// the item count. The ranking evaluators score user blocks in parallel,
  /// so implementations must be safe to call concurrently from multiple
  /// threads (pure const reads of model state).
  virtual void ScoreItems(uint32_t user, std::vector<float>* out) const = 0;
};

/// Recall and NDCG at one cutoff.
struct TopKMetrics {
  double recall = 0.0;
  double ndcg = 0.0;
};

/// Metrics at each requested cutoff, plus how many users were averaged.
struct EvalResult {
  std::map<int, TopKMetrics> at;
  size_t num_users_evaluated = 0;

  TopKMetrics At(int k) const {
    auto it = at.find(k);
    return it == at.end() ? TopKMetrics{} : it->second;
  }
};

/// Full-ranking evaluation.
///
/// `exclude_items[u]` (typically the user's train items, sorted) are
/// removed from u's candidate set; `test_items[u]` (sorted) are the
/// positives. Users with empty test sets are skipped. `cutoffs` may come
/// in any order and repeat: each distinct cutoff is reported once, from
/// one top-K selection per user at the largest of them.
EvalResult EvaluateRanking(
    const Scorer& scorer, size_t num_users, size_t num_items,
    const std::vector<std::vector<uint32_t>>& exclude_items,
    const std::vector<std::vector<uint32_t>>& test_items,
    const std::vector<int>& cutoffs);

/// Restricted-candidate evaluation (CIR/UCIR): user u is ranked only over
/// `candidates[u]`; users with an empty candidate or test set are skipped.
/// Test items must be contained in the candidate pool to count as hits.
EvalResult EvaluateRankingWithCandidates(
    const Scorer& scorer,
    const std::vector<std::vector<uint32_t>>& candidates,
    const std::vector<std::vector<uint32_t>>& test_items,
    const std::vector<int>& cutoffs);

/// DCG of a 0/1 relevance list (1-indexed positions, 1/log2(pos+1) gains).
double Dcg(const std::vector<int>& relevance);

/// Ideal DCG for `num_relevant` relevant documents at cutoff k.
double IdealDcg(size_t num_relevant, int k);

}  // namespace pup::eval
