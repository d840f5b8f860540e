// Shared inference-time scoring helper.
//
// Most models in this library reduce, after training, to
//   score(u, i) = ⟨user_vec[u], item_vec[i]⟩ + item_bias[i]
// for suitable precomputed vectors (e.g. PUP folds the price and category
// inner products of eq. 3 into item_vec and item_bias). This helper stores
// the precomputed matrices and scores all items of a user with one
// la::ScoreItemsForUser call, the kernel the server scores a frozen copy
// of these tables with: each item's bias seeds its dot, so a fitted
// model's eval scores and its served scores are the same floats.
#pragma once

#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace pup::models {

/// Precomputed dot-product scorer: score(u,·) = item_bias + item_vecs ·
/// user_vec(u), the bias starting each item's accumulation.
class DotScorer {
 public:
  DotScorer() = default;

  /// `user_vecs` is (num_users, d), `item_vecs` is (num_items, d);
  /// `item_bias` may be empty (treated as zero).
  DotScorer(la::Matrix user_vecs, la::Matrix item_vecs,
            std::vector<float> item_bias = {});

  /// Writes score(u, i) for every item into `out`.
  void ScoreItems(uint32_t user, std::vector<float>* out) const;

  bool initialized() const { return user_vecs_.rows() > 0; }
  const la::Matrix& user_vecs() const { return user_vecs_; }
  const la::Matrix& item_vecs() const { return item_vecs_; }
  /// Empty when the model has no additive item term.
  const std::vector<float>& item_bias() const { return item_bias_; }

 private:
  la::Matrix user_vecs_;
  la::Matrix item_vecs_;
  std::vector<float> item_bias_;
};

}  // namespace pup::models
