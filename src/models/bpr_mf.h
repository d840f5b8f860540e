// BPR-MF baseline (§V-A2): matrix factorization trained with the BPR loss
// (Rendle et al., UAI'09). Price-blind — the reference point every
// price-aware method is measured against.
#pragma once

#include <memory>

#include "autograd/tensor.h"
#include "models/recommender.h"
#include "models/scoring.h"
#include "train/trainer.h"

namespace pup::models {

/// Configuration for BPR-MF.
struct BprMfConfig {
  size_t embedding_dim = 64;
  float init_stddev = 0.05f;
  train::TrainOptions train;
};

/// score(u, i) = ⟨e_u, e_i⟩ with embeddings learned by minibatch BPR.
class BprMf : public Recommender, public train::BprTrainable {
 public:
  explicit BprMf(BprMfConfig config = {}) : config_(std::move(config)) {}

  std::string name() const override { return "BPR-MF"; }

  void Fit(const data::Dataset& dataset,
           const std::vector<data::Interaction>& train) override;

  void ScoreItems(uint32_t user, std::vector<float>* out) const override;

  const DotScorer* ExportScorer() const override {
    return scorer_.initialized() ? &scorer_ : nullptr;
  }

  // BprTrainable:
  train::TrainableState State() override;
  BatchGraph ForwardBatch(const std::vector<uint32_t>& users,
                          const std::vector<uint32_t>& pos_items,
                          const std::vector<uint32_t>& neg_items,
                          bool training) override;

 private:
  BprMfConfig config_;
  ag::Tensor user_emb_;
  ag::Tensor item_emb_;
  DotScorer scorer_;
};

}  // namespace pup::models
