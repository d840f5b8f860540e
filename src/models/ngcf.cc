#include "models/ngcf.h"

#include <cmath>

#include "autograd/ops.h"
#include "common/check.h"
#include "common/rng.h"

namespace pup::models {

void Ngcf::Fit(const data::Dataset& dataset,
               const std::vector<data::Interaction>& train) {
  PUP_CHECK_MSG(!dataset.item_price_level.empty(),
                "NGCF (price-feature variant) needs quantized price levels");
  Rng rng(config_.train.seed);
  dropout_rng_ = rng.Fork();
  BuildGraph(dataset, train, config_.max_neighbors, config_.train.seed);

  // Row-index maps for Propagate: static for the whole run.
  user_rows_.resize(dataset.num_users);
  item_rows_.resize(dataset.num_items);
  for (uint32_t u = 0; u < dataset.num_users; ++u) {
    user_rows_[u] = graph_->UserNode(u);
  }
  for (uint32_t i = 0; i < dataset.num_items; ++i) {
    item_rows_[i] = graph_->ItemNode(i);
  }
  price_rows_ = dataset.item_price_level;

  const size_t d = config_.embedding_dim;
  node_emb_ = ag::Param(
      la::Matrix::Gaussian(graph_->num_nodes(), d, config_.init_stddev, &rng));
  price_emb_ = ag::Param(la::Matrix::Gaussian(
      dataset.num_price_levels, d, config_.init_stddev, &rng));
  float w_std = std::sqrt(2.0f / static_cast<float>(d));
  w1_ = ag::Param(la::Matrix::Gaussian(d, d, w_std, &rng));
  w2_ = ag::Param(la::Matrix::Gaussian(d, d, w_std, &rng));

  train::TrainBpr(this, dataset, train, config_.train);
  FoldScorer();
}

ag::Tensor Ngcf::Propagate(bool training) {
  // E⁰: id embeddings, with the price embedding added onto item rows
  // (fused gather-gather-add; one tape node, one buffer).
  ag::Tensor e_users = ag::Gather(node_emb_, user_rows_);
  ag::Tensor e_items = ag::GatherAdd(node_emb_, item_rows_,
                                     price_emb_, price_rows_);
  ag::Tensor e0 = ag::ConcatRows({e_users, e_items});

  ag::Tensor conv = ag::Spmm(&graph_->adjacency(),
                             &graph_->adjacency_transposed(), e0);
  ag::Tensor part1 = ag::MatMul(conv, w1_);
  ag::Tensor part2 = ag::MatMul(ag::Mul(conv, e0), w2_);
  ag::Tensor e1 = ag::LeakyRelu(ag::Add(part1, part2), config_.leaky_slope);
  e1 = ag::Dropout(e1, config_.dropout, &dropout_rng_, training);
  return ag::ConcatCols({e0, e1});
}

train::TrainableState Ngcf::State() {
  return {.key = "ngcf",
          .tensors = {{"node_emb", node_emb_},
                      {"price_emb", price_emb_},
                      {"w1", w1_},
                      {"w2", w2_}},
          .dropout_rng = &dropout_rng_};
}

}  // namespace pup::models
