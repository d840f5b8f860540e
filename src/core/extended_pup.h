// ExtendedPup — the paper's §VII generality claim, implemented.
//
// PUP's recipe (attributes as first-class graph nodes + one tanh graph
// convolution + pairwise-interaction decoder) generalized to ANY number
// of categorical item attributes and user attributes:
//
//   * The graph is a HeteroGraph with one attribute block per attribute:
//     [users | items | item blocks… | user blocks…].
//   * The encoder is one propagation F = tanh(Â E) (eq. 6) with
//     feature-level dropout.
//   * The decoder scores a (u, i) pair with all pairwise inner products
//     among {f_u, f_i, f_a(i)…, f_b(u)…} — the 2-way FM over propagated
//     node embeddings, computed with the eq. (7) linear-time trick.
//
// Instantiating this with the item attributes {category, price} recovers
// a single-branch PUP variant; adding more blocks ("brand", "shop",
// user demographics) costs one config entry each.
#pragma once

#include <memory>
#include <string>

#include "autograd/tensor.h"
#include "graph/hetero_graph.h"
#include "models/recommender.h"
#include "models/scoring.h"
#include "train/trainer.h"

namespace pup::core {

/// One attribute fed to ExtendedPup.
struct ExtendedAttribute {
  std::string name;
  size_t cardinality = 0;
  /// Value per item (item attribute) or per user (user attribute).
  std::vector<uint32_t> values;
  bool is_user_attribute = false;
};

/// Configuration for ExtendedPup.
struct ExtendedPupConfig {
  size_t embedding_dim = 64;
  float dropout = 0.1f;
  float init_stddev = 0.05f;
  bool self_loops = true;
  std::vector<ExtendedAttribute> attributes;
  train::TrainOptions train;
};

/// PUP generalized to arbitrary categorical attribute blocks.
class ExtendedPup : public models::Recommender,
                    public train::BprTrainable {
 public:
  explicit ExtendedPup(ExtendedPupConfig config)
      : config_(std::move(config)) {}

  std::string name() const override { return "ExtendedPUP"; }

  void Fit(const data::Dataset& dataset,
           const std::vector<data::Interaction>& train) override;

  void ScoreItems(uint32_t user, std::vector<float>* out) const override;

  const models::DotScorer* ExportScorer() const override {
    return scorer_.initialized() ? &scorer_ : nullptr;
  }

  /// The node embedding table plus the dropout stream.
  train::TrainableState State() override;
  BatchGraph ForwardBatch(const std::vector<uint32_t>& users,
                          const std::vector<uint32_t>& pos_items,
                          const std::vector<uint32_t>& neg_items,
                          bool training) override;

  const graph::HeteroGraph* graph() const { return graph_.get(); }

 private:
  /// Propagated representations tanh(Â E), with dropout when training.
  ag::Tensor Propagate(bool training);

  /// Node-id field lists for a batch of (user, item) examples: the user,
  /// the item, each item attribute of the item, each user attribute of
  /// the user.
  std::vector<std::vector<uint32_t>> BatchFields(
      const std::vector<uint32_t>& users,
      const std::vector<uint32_t>& items) const;

  /// FM score over gathered fields via the eq. (7) trick.
  ag::Tensor DecodeFields(const ag::Tensor& f,
                          const std::vector<std::vector<uint32_t>>& fields);

  ExtendedPupConfig config_;
  std::unique_ptr<graph::HeteroGraph> graph_;
  // Indices into config_.attributes, split by side.
  std::vector<size_t> item_attr_index_;
  std::vector<size_t> user_attr_index_;
  ag::Tensor node_emb_;
  Rng dropout_rng_{0};
  models::DotScorer scorer_;
};

}  // namespace pup::core
