#include "models/gc_mc.h"

#include <cmath>

#include "autograd/ops.h"
#include "common/rng.h"

namespace pup::models {

void GcMc::Fit(const data::Dataset& dataset,
               const std::vector<data::Interaction>& train) {
  Rng rng(config_.train.seed);
  dropout_rng_ = rng.Fork();

  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(train.size());
  for (const data::Interaction& x : train) pairs.emplace_back(x.user, x.item);
  const std::vector<graph::AttributeBlock> no_blocks;  // User–item only.
  graph_ = std::make_unique<graph::HeteroGraph>(
      dataset.num_users, dataset.num_items, pairs, no_blocks, no_blocks,
      graph::HeteroGraphOptions{.max_neighbors = config_.max_neighbors,
                                .neighbor_seed = config_.train.seed});

  node_emb_ = ag::Param(la::Matrix::Gaussian(
      graph_->num_nodes(), config_.embedding_dim, config_.init_stddev, &rng));
  weight_ = ag::Param(la::Matrix::Gaussian(
      config_.embedding_dim, config_.embedding_dim,
      std::sqrt(2.0f / static_cast<float>(config_.embedding_dim)), &rng));

  train::TrainBpr(this, dataset, train, config_.train);

  // Inference: one clean propagation, split into user/item blocks.
  ag::Tensor h = Propagate(/*training=*/false);
  la::Matrix user_vecs(dataset.num_users, config_.embedding_dim);
  la::Matrix item_vecs(dataset.num_items, config_.embedding_dim);
  for (uint32_t u = 0; u < dataset.num_users; ++u) {
    const float* src = h->value.Row(graph_->UserNode(u));
    std::copy(src, src + config_.embedding_dim, user_vecs.Row(u));
  }
  for (uint32_t i = 0; i < dataset.num_items; ++i) {
    const float* src = h->value.Row(graph_->ItemNode(i));
    std::copy(src, src + config_.embedding_dim, item_vecs.Row(i));
  }
  scorer_ = DotScorer(std::move(user_vecs), std::move(item_vecs));
}

ag::Tensor GcMc::Propagate(bool training) {
  ag::Tensor conv = ag::Spmm(&graph_->adjacency(),
                             &graph_->adjacency_transposed(), node_emb_);
  ag::Tensor h = ag::LeakyRelu(ag::MatMul(conv, weight_));
  return ag::Dropout(h, config_.dropout, &dropout_rng_, training);
}

void GcMc::ScoreItems(uint32_t user, std::vector<float>* out) const {
  scorer_.ScoreItems(user, out);
}

train::TrainableState GcMc::State() {
  return {.key = "gc-mc",
          .tensors = {{"node_emb", node_emb_}, {"weight", weight_}},
          .dropout_rng = &dropout_rng_};
}

void GcMc::BuildBatchNodes(const std::vector<uint32_t>& users,
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

train::BprTrainable::BatchGraph GcMc::ForwardBatch(
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
  // Regularize the raw embeddings involved in this batch.
  batch.l2_terms = {ag::Gather(node_emb_, user_nodes_),
                    ag::Gather(node_emb_, pos_nodes_),
                    ag::Gather(node_emb_, neg_nodes_)};
  return batch;
}

train::BprTrainable::BatchLossGraph GcMc::ForwardBatchLoss(
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
