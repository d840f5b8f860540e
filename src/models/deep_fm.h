// DeepFM baseline (§V-A2, Guo et al. IJCAI'17).
//
// Combines the 2-way FM (shared feature embeddings, price and category as
// item features) with a deep component: an MLP over the concatenated
// field embeddings. Prediction = FM score + MLP score; BPR-trained like
// every other method in the comparison.
//
// Inference uses a factorized first layer: W1 splits into per-field
// blocks, so the item/category/price contribution to the first hidden
// layer is precomputed once per item and only the user block is applied
// per query. This makes full-ranking evaluation O(N · h) per user instead
// of O(N · 4d · h).
#pragma once

#include "models/fm.h"

namespace pup::models {

/// Configuration for DeepFM.
struct DeepFmConfig {
  size_t embedding_dim = 64;
  float init_stddev = 0.05f;
  size_t hidden1 = 32;
  size_t hidden2 = 16;
  train::TrainOptions train;
};

/// FM + MLP ensemble over {user, item, category, price}.
class DeepFm : public Fm {
 public:
  explicit DeepFm(DeepFmConfig config = {});

  std::string name() const override { return "DeepFM"; }

  void Fit(const data::Dataset& dataset,
           const std::vector<data::Interaction>& train) override;

  void ScoreItems(uint32_t user, std::vector<float>* out) const override;

  /// FM's state extended with the MLP parameters.
  train::TrainableState State() override;
  BatchGraph ForwardBatch(const std::vector<uint32_t>& users,
                          const std::vector<uint32_t>& pos_items,
                          const std::vector<uint32_t>& neg_items,
                          bool training) override;

 private:
  /// Deep-component score (B, 1) from the gathered field embeddings.
  ag::Tensor DeepScore(const FieldEmbeddings& fields);

  DeepFmConfig deep_config_;
  // MLP parameters: (4d, h1), (1, h1), (h1, h2), (1, h2), (h2, 1), (1, 1).
  ag::Tensor w1_, b1_, w2_, b2_, w3_, b3_;

  // Inference cache: per-item first-layer preactivation (items + their
  // category/price blocks + b1), and per-user first-layer contribution.
  la::Matrix item_pre1_;  // (N, h1)
  la::Matrix user_pre1_;  // (M, h1)
};

}  // namespace pup::models
