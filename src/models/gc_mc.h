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

#include <memory>

#include "autograd/tensor.h"
#include "graph/hetero_graph.h"
#include "models/recommender.h"
#include "models/scoring.h"
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
class GcMc : public Recommender, public train::BprTrainable {
 public:
  explicit GcMc(GcMcConfig config = {}) : config_(std::move(config)) {}

  std::string name() const override { return "GC-MC"; }

  void Fit(const data::Dataset& dataset,
           const std::vector<data::Interaction>& train) override;

  void ScoreItems(uint32_t user, std::vector<float>* out) const override;

  const DotScorer* ExportScorer() const override {
    return scorer_.initialized() ? &scorer_ : nullptr;
  }

  /// Node embeddings and W, plus the dropout stream.
  train::TrainableState State() override;
  BatchGraph ForwardBatch(const std::vector<uint32_t>& users,
                          const std::vector<uint32_t>& pos_items,
                          const std::vector<uint32_t>& neg_items,
                          bool training) override;
  /// Fused training head (RowDotSigmoidBpr); bitwise-identical trajectory.
  BatchLossGraph ForwardBatchLoss(const std::vector<uint32_t>& users,
                                  const std::vector<uint32_t>& pos_items,
                                  const std::vector<uint32_t>& neg_items,
                                  bool training) override;

 private:
  /// Propagated node representations (num_nodes, d).
  ag::Tensor Propagate(bool training);

  /// Maps a batch of user/item ids to graph node ids in the member
  /// scratch vectors (reused across steps).
  void BuildBatchNodes(const std::vector<uint32_t>& users,
                       const std::vector<uint32_t>& pos_items,
                       const std::vector<uint32_t>& neg_items);

  GcMcConfig config_;
  std::unique_ptr<graph::HeteroGraph> graph_;
  ag::Tensor node_emb_;  // (num_nodes, d)
  ag::Tensor weight_;    // (d, d)
  Rng dropout_rng_{0};
  DotScorer scorer_;

  // Per-batch node-index scratch, reused across steps.
  std::vector<uint32_t> user_nodes_, pos_nodes_, neg_nodes_;
};

}  // namespace pup::models
