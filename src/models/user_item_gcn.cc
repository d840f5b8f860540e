#include "models/user_item_gcn.h"

#include <algorithm>

#include "autograd/ops.h"

namespace pup::models {

void UserItemGcn::BuildGraph(const data::Dataset& dataset,
                             const std::vector<data::Interaction>& train,
                             size_t max_neighbors, uint64_t neighbor_seed) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(train.size());
  for (const data::Interaction& x : train) pairs.emplace_back(x.user, x.item);
  const std::vector<graph::AttributeBlock> no_blocks;  // User–item only.
  graph_ = std::make_unique<graph::HeteroGraph>(
      dataset.num_users, dataset.num_items, pairs, no_blocks, no_blocks,
      graph::HeteroGraphOptions{.max_neighbors = max_neighbors,
                                .neighbor_seed = neighbor_seed});
}

void UserItemGcn::FoldScorer() {
  ag::Tensor h = Propagate(/*training=*/false);
  const size_t d = h->value.cols();
  la::Matrix user_vecs(graph_->num_users(), d);
  la::Matrix item_vecs(graph_->num_items(), d);
  for (uint32_t u = 0; u < graph_->num_users(); ++u) {
    const float* src = h->value.Row(graph_->UserNode(u));
    std::copy(src, src + d, user_vecs.Row(u));
  }
  for (uint32_t i = 0; i < graph_->num_items(); ++i) {
    const float* src = h->value.Row(graph_->ItemNode(i));
    std::copy(src, src + d, item_vecs.Row(i));
  }
  scorer_ = DotScorer(std::move(user_vecs), std::move(item_vecs));
}

void UserItemGcn::ScoreItems(uint32_t user, std::vector<float>* out) const {
  scorer_.ScoreItems(user, out);
}

train::BprTrainable::BatchGraph UserItemGcn::ForwardBatch(
    const std::vector<uint32_t>& users, const std::vector<uint32_t>& pos_items,
    const std::vector<uint32_t>& neg_items, bool training) {
  ag::Tensor h = Propagate(training);
  // NOLINTNEXTLINE(pup-hot-transitive): member scratch sized to the batch; capacity is retained across steps.
  user_nodes_.resize(users.size());
  pos_nodes_.resize(pos_items.size());  // NOLINT(pup-hot-transitive): see above.
  neg_nodes_.resize(neg_items.size());  // NOLINT(pup-hot-transitive): see above.
  for (size_t k = 0; k < users.size(); ++k) {
    user_nodes_[k] = graph_->UserNode(users[k]);
    pos_nodes_[k] = graph_->ItemNode(pos_items[k]);
    neg_nodes_[k] = graph_->ItemNode(neg_items[k]);
  }

  BatchGraph batch;
  batch.user = ag::Gather(h, user_nodes_);
  batch.pos = ag::Gather(h, pos_nodes_);
  batch.neg = ag::Gather(h, neg_nodes_);
  // Regularize the raw embeddings involved in this batch.
  batch.l2_terms = {ag::Gather(node_emb_, user_nodes_),
                    ag::Gather(node_emb_, pos_nodes_),
                    ag::Gather(node_emb_, neg_nodes_)};
  return batch;
}

}  // namespace pup::models
