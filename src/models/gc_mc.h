// GC-MC baseline (§V-A2, van den Berg et al. 2017).
//
// Graph convolutional matrix completion on the user–item bipartite graph
// with one-hot ID input features (as the paper configures it): one
// convolution H = relu((Â E) W) over the normalized bipartite adjacency,
// then a dot-product decoder between propagated user and item
// representations.
//
// Simplification vs the original: implicit feedback has a single rating
// type, so the per-rating-type weight matrices collapse to one W and the
// bilinear decoder to a dot product.
#pragma once

#include "models/user_item_gcn.h"
#include "train/trainer.h"

namespace pup::models {

/// Configuration for GC-MC.
struct GcMcConfig {
  size_t embedding_dim = 64;
  float init_stddev = 0.05f;
  float dropout = 0.1f;
  /// Per-node fan-in cap in Â (0 = full neighborhood; see PupConfig).
  size_t max_neighbors = 0;
  train::TrainOptions train;
};

/// One-layer GCN on the bipartite graph with a dot decoder, BPR-trained.
class GcMc : public UserItemGcn {
 public:
  explicit GcMc(GcMcConfig config = {}) : config_(std::move(config)) {}

  std::string name() const override { return "GC-MC"; }

  void Fit(const data::Dataset& dataset,
           const std::vector<data::Interaction>& train) override;

  /// Node embeddings and W, plus the dropout stream.
  train::TrainableState State() override;

 private:
  /// Propagated node representations (num_nodes, d).
  ag::Tensor Propagate(bool training) override;

  GcMcConfig config_;
  ag::Tensor weight_;  // (d, d)
};

}  // namespace pup::models
