#include "eval/value_aware.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "eval/topk.h"

namespace pup::eval {

ValueAwareScorer::ValueAwareScorer(const Scorer& base,
                                   std::vector<float> prices, float beta)
    : base_(base), beta_(beta) {
  log_price_.reserve(prices.size());
  for (float p : prices) {
    PUP_CHECK_MSG(p > 0.0f, "prices must be positive");
    log_price_.push_back(std::log(p));
  }
}

void ValueAwareScorer::ScoreItems(uint32_t user,
                                  std::vector<float>* out) const {
  base_.ScoreItems(user, out);
  PUP_CHECK_EQ(out->size(), log_price_.size());
  for (size_t i = 0; i < out->size(); ++i) {
    (*out)[i] += beta_ * log_price_[i];
  }
}

double RevenueAtK(const Scorer& scorer, size_t num_users, size_t num_items,
                  const std::vector<std::vector<uint32_t>>& exclude_items,
                  const std::vector<std::vector<uint32_t>>& test_items,
                  const std::vector<float>& prices, int k) {
  PUP_CHECK_EQ(prices.size(), num_items);
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  double total = 0.0;
  size_t evaluated = 0;
  std::vector<float> scores;
  std::vector<uint32_t> top;
  TopKSelector selector;
  for (uint32_t u = 0; u < num_users; ++u) {
    const auto& test = test_items[u];
    if (test.empty()) continue;
    ++evaluated;
    scorer.ScoreItems(u, &scores);
    PUP_CHECK_EQ(scores.size(), num_items);
    for (uint32_t item : exclude_items[u]) scores[item] = kNegInf;
    selector.Select(scores.data(), num_items, static_cast<size_t>(k), &top);
    for (uint32_t item : top) {
      if (scores[item] == kNegInf) break;
      if (std::binary_search(test.begin(), test.end(), item)) {
        total += prices[item];
      }
    }
  }
  return evaluated > 0 ? total / static_cast<double>(evaluated) : 0.0;
}

}  // namespace pup::eval
