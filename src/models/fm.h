// Factorization Machines baseline (§V-A2, Rendle ICDM'10).
//
// Price and category are integrated as item features (exactly how the
// paper configures this baseline): each (u, i) example activates four
// features — user id, item id, the item's category, and its price level —
// all factorized into one shared latent space. The prediction is the sum
// of pairwise inner products (the 2-way FM) plus per-feature linear
// biases; the O(k·d) pairwise sum is computed with the linear-time trick
// of eq. (7).
#pragma once

#include <memory>

#include "autograd/tensor.h"
#include "models/recommender.h"
#include "common/rng.h"
#include "models/scoring.h"
#include "train/trainer.h"

namespace pup::models {

/// Configuration for the FM baseline.
struct FmConfig {
  size_t embedding_dim = 64;
  float init_stddev = 0.05f;
  train::TrainOptions train;
};

/// 2-way FM over {user, item, category, price} features, BPR-trained.
class Fm : public Recommender, public train::BprTrainable {
 public:
  explicit Fm(FmConfig config = {}) : config_(std::move(config)) {}

  std::string name() const override { return "FM"; }

  void Fit(const data::Dataset& dataset,
           const std::vector<data::Interaction>& train) override;

  void ScoreItems(uint32_t user, std::vector<float>* out) const override;

  const DotScorer* ExportScorer() const override {
    return scorer_.initialized() ? &scorer_ : nullptr;
  }

  // BprTrainable (DeepFM extends the state with its MLP parameters):
  train::TrainableState State() override;
  BatchGraph ForwardBatch(const std::vector<uint32_t>& users,
                          const std::vector<uint32_t>& pos_items,
                          const std::vector<uint32_t>& neg_items,
                          bool training) override;

 protected:
  /// The four gathered per-example embedding blocks (B, d) each.
  struct FieldEmbeddings {
    ag::Tensor user, item, category, price;
  };

  /// Allocates the shared feature embedding/bias tables for `dataset`
  /// and maps each item to its category and price features.
  void InitializeFm(const data::Dataset& dataset, Rng* rng);

  /// Precomputes the inference DotScorer from the trained tables.
  void BuildFmScorer();

  /// Differentiable FM score for a batch of (user, item) pairs. If
  /// `fields` is non-null it receives the gathered field embeddings
  /// (DeepFM feeds them to its deep component).
  ag::Tensor ScoreBatch(const std::vector<uint32_t>& users,
                        const std::vector<uint32_t>& items,
                        std::vector<ag::Tensor>* l2_terms,
                        FieldEmbeddings* fields = nullptr);

  // Feature space: [users | items | categories | price levels].
  uint32_t UserFeature(uint32_t u) const { return u; }
  uint32_t ItemFeature(uint32_t i) const {
    return static_cast<uint32_t>(num_users_) + i;
  }

  FmConfig config_;
  size_t num_users_ = 0;
  size_t num_items_ = 0;
  // Category and price feature of each item, built once by InitializeFm.
  std::vector<uint32_t> item_category_feature_, item_price_feature_;
  ag::Tensor feature_emb_;   // (#features, d)
  ag::Tensor feature_bias_;  // (#features, 1)
  DotScorer scorer_;

 private:
  // Per-batch feature-index scratch, reused across steps (Gather copies
  // the indices, so both ScoreBatch calls of one step may share these).
  std::vector<uint32_t> f_user_, f_item_, f_cat_, f_price_;
};

}  // namespace pup::models
