// The shell GC-MC and NGCF share.
//
// Both baselines convolve node embeddings over the user–item graph (a
// HeteroGraph with no attribute blocks) and score a pair by the dot
// product of the propagated user and item rows, s(u, i) = ⟨h_u, h_i⟩.
// This class holds that graph, the row-dot batch forward, and the fold of
// one eval-mode propagation into a DotScorer. Each model writes only its
// own propagation, state and Fit — their layer math differs.
#pragma once

#include <memory>
#include <vector>

#include "autograd/tensor.h"
#include "common/rng.h"
#include "graph/hetero_graph.h"
#include "models/recommender.h"
#include "models/scoring.h"
#include "train/trainer.h"

namespace pup::models {

/// A graph model with a dot decoder over the user–item graph. A subclass
/// Fit calls BuildGraph, creates node_emb_ and its own tensors, trains,
/// then calls FoldScorer.
class UserItemGcn : public Recommender, public train::BprTrainable {
 public:
  void ScoreItems(uint32_t user, std::vector<float>* out) const override;

  const DotScorer* ExportScorer() const override {
    return scorer_.initialized() ? &scorer_ : nullptr;
  }

  /// Row-dot batch of propagated user, positive and negative rows; L2 on
  /// the raw node embeddings of those nodes.
  BatchGraph ForwardBatch(const std::vector<uint32_t>& users,
                          const std::vector<uint32_t>& pos_items,
                          const std::vector<uint32_t>& neg_items,
                          bool training) final;

 protected:
  /// Propagated node representations, one row per graph node.
  virtual ag::Tensor Propagate(bool training) = 0;

  /// Builds graph_ from the (user, item) pairs of `train`.
  void BuildGraph(const data::Dataset& dataset,
                  const std::vector<data::Interaction>& train,
                  size_t max_neighbors, uint64_t neighbor_seed);

  /// Splits one eval-mode propagation into the user/item scorer.
  void FoldScorer();

  std::unique_ptr<graph::HeteroGraph> graph_;
  ag::Tensor node_emb_;  // (num_nodes, d) raw node embeddings.
  Rng dropout_rng_{0};

 private:
  DotScorer scorer_;
  // Per-batch node-index scratch, reused across steps.
  std::vector<uint32_t> user_nodes_, pos_nodes_, neg_nodes_;
};

}  // namespace pup::models
