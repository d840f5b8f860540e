#include "core/extended_pup.h"

#include <algorithm>

#include "autograd/ops.h"
#include "common/check.h"
#include "la/kernels.h"

namespace pup::core {

void ExtendedPup::Fit(const data::Dataset& dataset,
                      const std::vector<data::Interaction>& train) {
  Rng rng(config_.train.seed);
  dropout_rng_ = rng.Fork();

  std::vector<graph::AttributeBlock> item_blocks, user_blocks;
  item_attr_index_.clear();
  user_attr_index_.clear();
  for (size_t a = 0; a < config_.attributes.size(); ++a) {
    const ExtendedAttribute& attr = config_.attributes[a];
    const graph::AttributeBlock block{attr.cardinality, attr.values};
    if (attr.is_user_attribute) {
      PUP_CHECK_EQ(attr.values.size(), dataset.num_users);
      user_attr_index_.push_back(a);
      user_blocks.push_back(block);
    } else {
      PUP_CHECK_EQ(attr.values.size(), dataset.num_items);
      item_attr_index_.push_back(a);
      item_blocks.push_back(block);
    }
  }

  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(train.size());
  for (const data::Interaction& x : train) pairs.emplace_back(x.user, x.item);
  graph_ = std::make_unique<graph::HeteroGraph>(
      dataset.num_users, dataset.num_items, pairs, item_blocks, user_blocks,
      graph::HeteroGraphOptions{.add_self_loops = config_.self_loops});

  node_emb_ = ag::Param(la::Matrix::Gaussian(
      graph_->num_nodes(), config_.embedding_dim, config_.init_stddev,
      &rng));

  train::TrainBpr(this, dataset, train, config_.train);

  // --- Fold the decoder for inference. All pairs among user-side fields
  // are per-user constants (dropped); pairs among item-side fields fold
  // into a bias; cross pairs are ⟨Σ user-side, Σ item-side⟩. ---
  ag::Tensor propagated = Propagate(/*training=*/false);
  const la::Matrix& f = propagated->value;
  const size_t d = config_.embedding_dim;

  la::Matrix user_vecs(dataset.num_users, d);
  for (uint32_t u = 0; u < dataset.num_users; ++u) {
    float* dst = user_vecs.Row(u);
    const float* fu = f.Row(graph_->UserNode(u));
    std::copy(fu, fu + d, dst);
    for (size_t b = 0; b < user_attr_index_.size(); ++b) {
      const auto& attr = config_.attributes[user_attr_index_[b]];
      const float* fa = f.Row(graph_->UserAttributeNode(b, attr.values[u]));
      for (size_t j = 0; j < d; ++j) dst[j] += fa[j];
    }
  }

  la::Matrix item_vecs(dataset.num_items, d);
  std::vector<float> item_bias(dataset.num_items, 0.0f);
  std::vector<const float*> side(1 + item_attr_index_.size());
  for (uint32_t i = 0; i < dataset.num_items; ++i) {
    side[0] = f.Row(graph_->ItemNode(i));
    for (size_t b = 0; b < item_attr_index_.size(); ++b) {
      const auto& attr = config_.attributes[item_attr_index_[b]];
      side[1 + b] = f.Row(graph_->ItemAttributeNode(b, attr.values[i]));
    }
    float* dst = item_vecs.Row(i);
    for (size_t j = 0; j < d; ++j) {
      float sum = 0.0f;
      for (const float* s : side) sum += s[j];
      dst[j] = sum;
    }
    float bias = 0.0f;
    for (size_t a = 0; a < side.size(); ++a) {
      for (size_t b = a + 1; b < side.size(); ++b) {
        for (size_t j = 0; j < d; ++j) bias += side[a][j] * side[b][j];
      }
    }
    item_bias[i] = bias;
  }
  scorer_ = models::DotScorer(std::move(user_vecs), std::move(item_vecs),
                              std::move(item_bias));
}

ag::Tensor ExtendedPup::Propagate(bool training) {
  ag::Tensor f = ag::Tanh(ag::Spmm(&graph_->adjacency(),
                                   &graph_->adjacency_transposed(),
                                   node_emb_));
  return ag::Dropout(f, config_.dropout, &dropout_rng_, training);
}

std::vector<std::vector<uint32_t>> ExtendedPup::BatchFields(
    const std::vector<uint32_t>& users,
    const std::vector<uint32_t>& items) const {
  const size_t b = users.size();
  std::vector<std::vector<uint32_t>> fields(
      2 + item_attr_index_.size() + user_attr_index_.size(),
      std::vector<uint32_t>(b));
  for (size_t k = 0; k < b; ++k) {
    fields[0][k] = graph_->UserNode(users[k]);
    fields[1][k] = graph_->ItemNode(items[k]);
    size_t field = 2;
    for (size_t blk = 0; blk < item_attr_index_.size(); ++blk, ++field) {
      const auto& attr = config_.attributes[item_attr_index_[blk]];
      fields[field][k] =
          graph_->ItemAttributeNode(blk, attr.values[items[k]]);
    }
    for (size_t blk = 0; blk < user_attr_index_.size(); ++blk, ++field) {
      const auto& attr = config_.attributes[user_attr_index_[blk]];
      fields[field][k] =
          graph_->UserAttributeNode(blk, attr.values[users[k]]);
    }
  }
  return fields;
}

ag::Tensor ExtendedPup::DecodeFields(
    const ag::Tensor& f, const std::vector<std::vector<uint32_t>>& fields) {
  // Eq. (7): ½(‖Σe‖² − Σ‖e‖²) per example.
  std::vector<ag::Tensor> gathered;
  // NOLINTNEXTLINE(pup-hot-transitive): bounded by the field count; the training forward builds the tape and allocates by design.
  gathered.reserve(fields.size());
  for (const auto& idx : fields) gathered.push_back(ag::Gather(f, idx));  // NOLINT(pup-hot-transitive): reserve() above.
  ag::Tensor sum = gathered[0];
  for (size_t k = 1; k < gathered.size(); ++k) {
    sum = ag::Add(sum, gathered[k]);
  }
  ag::Tensor total = ag::RowDot(sum, sum);
  ag::Tensor self = ag::RowDot(gathered[0], gathered[0]);
  for (size_t k = 1; k < gathered.size(); ++k) {
    self = ag::Add(self, ag::RowDot(gathered[k], gathered[k]));
  }
  return ag::Scale(ag::Sub(total, self), 0.5f);
}

void ExtendedPup::ScoreItems(uint32_t user, std::vector<float>* out) const {
  scorer_.ScoreItems(user, out);
}

train::TrainableState ExtendedPup::State() {
  return {.key = "extended-pup",
          .tensors = {{"node_emb", node_emb_}},
          .dropout_rng = &dropout_rng_};
}

train::BprTrainable::BatchGraph ExtendedPup::ForwardBatch(
    const std::vector<uint32_t>& users, const std::vector<uint32_t>& pos_items,
    const std::vector<uint32_t>& neg_items, bool training) {
  ag::Tensor f = Propagate(training);
  auto pos_fields = BatchFields(users, pos_items);
  auto neg_fields = BatchFields(users, neg_items);

  BatchGraph batch;
  batch.pos_scores = DecodeFields(f, pos_fields);
  batch.neg_scores = DecodeFields(f, neg_fields);
  batch.l2_terms = {ag::Gather(node_emb_, pos_fields[0]),
                    ag::Gather(node_emb_, pos_fields[1]),
                    ag::Gather(node_emb_, neg_fields[1])};
  return batch;
}

}  // namespace pup::core
