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

#include "models/user_item_gcn.h"
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
class Ngcf : public UserItemGcn {
 public:
  explicit Ngcf(NgcfConfig config = {}) : config_(std::move(config)) {}

  std::string name() const override { return "NGCF"; }

  void Fit(const data::Dataset& dataset,
           const std::vector<data::Interaction>& train) override;

  /// Id and price embeddings, W₁ and W₂, plus the dropout stream.
  train::TrainableState State() override;

 private:
  /// Final node representations [E⁰ ‖ e¹], (num_nodes, 2d).
  ag::Tensor Propagate(bool training) override;

  NgcfConfig config_;
  ag::Tensor price_emb_;  // (num_price_levels, d) item feature embeddings
  ag::Tensor w1_, w2_;    // (d, d) each

  // Static row-index maps for Propagate, built once in Fit.
  std::vector<uint32_t> user_rows_, item_rows_, price_rows_;
};

}  // namespace pup::models
