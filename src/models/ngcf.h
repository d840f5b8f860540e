// NGCF baseline (§V-A2, Wang et al. SIGIR'19).
//
// Neural graph collaborative filtering on the user–item bipartite graph.
// As the paper configures this baseline, item input features are the
// concatenation of one-hot ID and one-hot price: implemented as
// e⁰_item = id-embedding + price-embedding (a concatenated one-hot times
// a weight matrix is exactly the sum of the two lookups), so the model is
// price-aware at the *feature* level — the contrast with PUP's price
// *nodes*.
//
// Propagation (one layer, scaled from the original's three to match the
// single-layer PUP encoder):
//   e¹ = LeakyReLU( (Â E⁰) W₁ + (Â E⁰ ⊙ E⁰) W₂ ),
// and the final representation is the concatenation [E⁰ ‖ e¹].
#pragma once

#include <memory>

#include "autograd/tensor.h"
#include "graph/hetero_graph.h"
#include "models/recommender.h"
#include "models/scoring.h"
#include "train/trainer.h"

namespace pup::models {

/// Configuration for NGCF.
struct NgcfConfig {
  size_t embedding_dim = 64;
  float init_stddev = 0.05f;
  float dropout = 0.1f;
  float leaky_slope = 0.2f;
  /// Per-node fan-in cap in Â (0 = full neighborhood; see PupConfig).
  size_t max_neighbors = 0;
  train::TrainOptions train;
};

/// One-layer NGCF with price-augmented item input features.
class Ngcf : public Recommender, public train::BprTrainable {
 public:
  explicit Ngcf(NgcfConfig config = {}) : config_(std::move(config)) {}

  std::string name() const override { return "NGCF"; }

  void Fit(const data::Dataset& dataset,
           const std::vector<data::Interaction>& train) override;

  void ScoreItems(uint32_t user, std::vector<float>* out) const override;

  const DotScorer* ExportScorer() const override {
    return scorer_.initialized() ? &scorer_ : nullptr;
  }

  /// Id and price embeddings, W₁ and W₂, plus the dropout stream.
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
  /// Final node representations [E⁰ ‖ e¹], (num_nodes, 2d).
  ag::Tensor Propagate(bool training);

  /// Maps a batch of user/item ids to graph node ids in the member
  /// scratch vectors (reused across steps).
  void BuildBatchNodes(const std::vector<uint32_t>& users,
                       const std::vector<uint32_t>& pos_items,
                       const std::vector<uint32_t>& neg_items);

  NgcfConfig config_;
  std::unique_ptr<graph::HeteroGraph> graph_;
  std::vector<uint32_t> item_price_level_;
  ag::Tensor node_emb_;   // (num_nodes, d) id embeddings
  ag::Tensor price_emb_;  // (num_price_levels, d) item feature embeddings
  ag::Tensor w1_, w2_;    // (d, d) each
  Rng dropout_rng_{0};
  DotScorer scorer_;

  // Static row-index maps for Propagate, built once in Fit.
  std::vector<uint32_t> user_rows_, item_rows_, price_rows_;
  // Per-batch node-index scratch, reused across steps.
  std::vector<uint32_t> user_nodes_, pos_nodes_, neg_nodes_;
};

}  // namespace pup::models
