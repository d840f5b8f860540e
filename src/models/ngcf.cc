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
  item_price_level_ = dataset.item_price_level;

  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(train.size());
  for (const data::Interaction& x : train) pairs.emplace_back(x.user, x.item);
  const std::vector<graph::AttributeBlock> no_blocks;  // User–item only.
  graph_ = std::make_unique<graph::HeteroGraph>(
      dataset.num_users, dataset.num_items, pairs, no_blocks, no_blocks,
      graph::HeteroGraphOptions{.max_neighbors = config_.max_neighbors,
                                .neighbor_seed = config_.train.seed});

  // Row-index maps for Propagate: static for the whole run.
  user_rows_.resize(dataset.num_users);
  item_rows_.resize(dataset.num_items);
  price_rows_.resize(dataset.num_items);
  for (uint32_t u = 0; u < dataset.num_users; ++u) {
    user_rows_[u] = graph_->UserNode(u);
  }
  for (uint32_t i = 0; i < dataset.num_items; ++i) {
    item_rows_[i] = graph_->ItemNode(i);
    price_rows_[i] = item_price_level_[i];
  }

  const size_t d = config_.embedding_dim;
  node_emb_ = ag::Param(
      la::Matrix::Gaussian(graph_->num_nodes(), d, config_.init_stddev, &rng));
  price_emb_ = ag::Param(la::Matrix::Gaussian(
      dataset.num_price_levels, d, config_.init_stddev, &rng));
  float w_std = std::sqrt(2.0f / static_cast<float>(d));
  w1_ = ag::Param(la::Matrix::Gaussian(d, d, w_std, &rng));
  w2_ = ag::Param(la::Matrix::Gaussian(d, d, w_std, &rng));

  train::TrainBpr(this, dataset, train, config_.train);

  ag::Tensor h = Propagate(/*training=*/false);
  const size_t out_d = h->value.cols();
  la::Matrix user_vecs(dataset.num_users, out_d);
  la::Matrix item_vecs(dataset.num_items, out_d);
  for (uint32_t u = 0; u < dataset.num_users; ++u) {
    const float* src = h->value.Row(graph_->UserNode(u));
    std::copy(src, src + out_d, user_vecs.Row(u));
  }
  for (uint32_t i = 0; i < dataset.num_items; ++i) {
    const float* src = h->value.Row(graph_->ItemNode(i));
    std::copy(src, src + out_d, item_vecs.Row(i));
  }
  scorer_ = DotScorer(std::move(user_vecs), std::move(item_vecs));
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

void Ngcf::ScoreItems(uint32_t user, std::vector<float>* out) const {
  scorer_.ScoreItems(user, out);
}

train::TrainableState Ngcf::State() {
  return {.key = "ngcf",
          .tensors = {{"node_emb", node_emb_},
                      {"price_emb", price_emb_},
                      {"w1", w1_},
                      {"w2", w2_}},
          .dropout_rng = &dropout_rng_};
}

void Ngcf::BuildBatchNodes(const std::vector<uint32_t>& users,
                           const std::vector<uint32_t>& pos_items,
                           const std::vector<uint32_t>& neg_items) {
  // NOLINTNEXTLINE(pup-hot-transitive): member scratch sized to the batch; capacity is retained across steps.
  user_nodes_.resize(users.size());
  pos_nodes_.resize(pos_items.size());  // NOLINT(pup-hot-transitive): see above.
  neg_nodes_.resize(neg_items.size());  // NOLINT(pup-hot-transitive): see above.
  for (size_t k = 0; k < users.size(); ++k) {
    user_nodes_[k] = graph_->UserNode(users[k]);
    pos_nodes_[k] = graph_->ItemNode(pos_items[k]);
    neg_nodes_[k] = graph_->ItemNode(neg_items[k]);
  }
}

train::BprTrainable::BatchGraph Ngcf::ForwardBatch(
    const std::vector<uint32_t>& users, const std::vector<uint32_t>& pos_items,
    const std::vector<uint32_t>& neg_items, bool training) {
  ag::Tensor h = Propagate(training);
  BuildBatchNodes(users, pos_items, neg_items);
  ag::Tensor hu = ag::Gather(h, user_nodes_);
  ag::Tensor hp = ag::Gather(h, pos_nodes_);
  ag::Tensor hn = ag::Gather(h, neg_nodes_);

  BatchGraph batch;
  batch.pos_scores = ag::RowDot(hu, hp);
  batch.neg_scores = ag::RowDot(hu, hn);
  batch.l2_terms = {ag::Gather(node_emb_, user_nodes_),
                    ag::Gather(node_emb_, pos_nodes_),
                    ag::Gather(node_emb_, neg_nodes_)};
  return batch;
}

train::BprTrainable::BatchLossGraph Ngcf::ForwardBatchLoss(
    const std::vector<uint32_t>& users, const std::vector<uint32_t>& pos_items,
    const std::vector<uint32_t>& neg_items, bool training) {
  ag::Tensor h = Propagate(training);
  BuildBatchNodes(users, pos_items, neg_items);
  ag::Tensor hu = ag::Gather(h, user_nodes_);
  ag::Tensor hp = ag::Gather(h, pos_nodes_);
  ag::Tensor hn = ag::Gather(h, neg_nodes_);

  BatchLossGraph graph;
  graph.loss = ag::RowDotSigmoidBpr(hu, hp, hn);
  graph.l2_terms = {ag::Gather(node_emb_, user_nodes_),
                    ag::Gather(node_emb_, pos_nodes_),
                    ag::Gather(node_emb_, neg_nodes_)};
  return graph;
}

}  // namespace pup::models
