#include "models/gc_mc.h"

#include <cmath>

#include "autograd/ops.h"
#include "common/rng.h"

namespace pup::models {

void GcMc::Fit(const data::Dataset& dataset,
               const std::vector<data::Interaction>& train) {
  Rng rng(config_.train.seed);
  dropout_rng_ = rng.Fork();
  BuildGraph(dataset, train, config_.max_neighbors, config_.train.seed);

  node_emb_ = ag::Param(la::Matrix::Gaussian(
      graph_->num_nodes(), config_.embedding_dim, config_.init_stddev, &rng));
  weight_ = ag::Param(la::Matrix::Gaussian(
      config_.embedding_dim, config_.embedding_dim,
      std::sqrt(2.0f / static_cast<float>(config_.embedding_dim)), &rng));

  train::TrainBpr(this, dataset, train, config_.train);
  FoldScorer();
}

ag::Tensor GcMc::Propagate(bool training) {
  ag::Tensor conv = ag::Spmm(&graph_->adjacency(),
                             &graph_->adjacency_transposed(), node_emb_);
  ag::Tensor h = ag::LeakyRelu(ag::MatMul(conv, weight_));
  return ag::Dropout(h, config_.dropout, &dropout_rng_, training);
}

train::TrainableState GcMc::State() {
  return {.key = "gc-mc",
          .tensors = {{"node_emb", node_emb_}, {"weight", weight_}},
          .dropout_rng = &dropout_rng_};
}

}  // namespace pup::models
