// PUP — Price-aware User Preference modeling (§III), the paper's primary
// contribution.
//
// Two branches, each with its own unified heterogeneous graph encoder
// (user/item/category/price nodes, one tanh graph convolution — eq. 6) and
// a pairwise-interaction FM-style decoder (eq. 3):
//   s_global   = e_uᵀ e_i + e_uᵀ e_p + e_iᵀ e_p   (purchasing power)
//   s_category = e_uᵀ e_c + e_uᵀ e_p + e_cᵀ e_p   (category-local price)
//   s          = s_global + α · s_category
// with the holistic embedding size split between the branches (Table V).
//
// The config switches also express every ablation in the paper:
//   * PUP w/o c,p  — no price/category nodes, dot-product decoder;
//   * PUP w/ c     — category nodes only, decoder u·i + u·c + i·c;
//   * PUP w/ p (= PUP-) — price nodes only, decoder u·i + u·p + i·p;
//   * single-branch vs two-branch, self-loops on/off, dim allocation.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "autograd/tensor.h"
#include "graph/hetero_graph.h"
#include "models/recommender.h"
#include "models/scoring.h"
#include "train/trainer.h"

namespace pup::core {

/// Configuration for the PUP model and its ablations.
struct PupConfig {
  /// Holistic embedding size; split between branches when two_branch.
  size_t embedding_dim = 64;
  /// Dimensions allocated to the category branch (Table V best: 56/8).
  size_t category_branch_dim = 8;
  /// Weight α of the category branch in eq. (3).
  float alpha = 0.5f;

  /// Graph/decoder ablation switches.
  bool use_price = true;
  bool use_category = true;
  /// Two-branch (global + category) vs a single global branch.
  bool two_branch = true;
  /// Self-loops in Â (eq. 5); exposed for the ablation bench.
  bool self_loops = true;
  /// PinSage-style per-node fan-in cap in Â (--max-neighbors); 0 keeps
  /// the full neighborhood (bitwise-golden default). The sampling seed is
  /// train.seed, so runs stay reproducible end to end.
  size_t max_neighbors = 0;

  /// Number of stacked graph convolutions (paper: 1). With more layers
  /// the final representation is the mean of every layer's output
  /// (LightGCN-style smoothing).
  int num_layers = 1;

  float dropout = 0.1f;
  float init_stddev = 0.05f;
  train::TrainOptions train;

  /// Display name override (e.g. "PUP-"); default derives from switches.
  std::optional<std::string> name;

  /// Full PUP with the paper's preferred 56/8 branch allocation.
  static PupConfig Full();
  /// PUP- of Fig 6: category nodes removed (price only, single branch).
  static PupConfig Minus();
  /// Ablations of Table III.
  static PupConfig WithoutCategoryAndPrice();
  static PupConfig WithCategoryOnly();
  static PupConfig WithPriceOnly();
};

/// The PUP recommender.
class Pup : public models::Recommender, public train::BprTrainable {
 public:
  explicit Pup(PupConfig config = PupConfig::Full());

  std::string name() const override;

  void Fit(const data::Dataset& dataset,
           const std::vector<data::Interaction>& train) override;

  void ScoreItems(uint32_t user, std::vector<float>* out) const override;

  const models::DotScorer* ExportScorer() const override {
    return scorer_.initialized() ? &scorer_ : nullptr;
  }

  /// Both branch embedding tables plus the dropout stream.
  train::TrainableState State() override;
  BatchGraph ForwardBatch(const std::vector<uint32_t>& users,
                          const std::vector<uint32_t>& pos_items,
                          const std::vector<uint32_t>& neg_items,
                          bool training) override;

  const PupConfig& config() const { return config_; }

  /// Price-level rows of the global branch's eval-mode propagation, the
  /// one Fit folds into the scorer (the learned "purchasing power" axis)
  /// — used by analysis examples. Empty before Fit and when use_price is
  /// false.
  const la::Matrix& GlobalPriceEmbeddings() const { return global_price_emb_; }

 private:
  struct Branch {
    ag::Tensor emb;  // (num_nodes, branch_dim) raw embeddings.
    size_t dim = 0;
  };

  /// Propagated representations tanh(Â E) for one branch.
  ag::Tensor Propagate(const Branch& branch, bool training);

  /// Decoder for one branch over gathered rows (B, dim).
  /// Global branch: u·i + u·p + i·p (degenerating gracefully when price or
  /// category nodes are disabled); category branch: u·c + u·p + c·p.
  ag::Tensor DecodeGlobal(const ag::Tensor& f,
                          const std::vector<uint32_t>& user_nodes,
                          const std::vector<uint32_t>& item_nodes,
                          const std::vector<uint32_t>& cat_nodes,
                          const std::vector<uint32_t>& price_nodes);
  ag::Tensor DecodeCategory(const ag::Tensor& f,
                            const std::vector<uint32_t>& user_nodes,
                            const std::vector<uint32_t>& cat_nodes,
                            const std::vector<uint32_t>& price_nodes);

  PupConfig config_;
  std::unique_ptr<graph::HeteroGraph> graph_;
  // Each item's category and price node, built once by Fit; empty when
  // the graph has no such nodes.
  std::vector<uint32_t> item_category_nodes_, item_price_nodes_;
  Branch global_;
  Branch category_;  // Unused when !two_branch.
  Rng dropout_rng_{0};
  models::DotScorer scorer_;
  la::Matrix global_price_emb_;  // (num_price_levels, global dim)

  // Per-batch node-index scratch, reused across steps (ForwardBatch
  // resizes; entries for disabled node types are never read).
  std::vector<uint32_t> user_nodes_, pos_nodes_, neg_nodes_, pos_cats_,
      neg_cats_, pos_prices_, neg_prices_;
};

}  // namespace pup::core
