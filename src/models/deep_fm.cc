#include "models/deep_fm.h"

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "common/check.h"
#include "la/kernels.h"

namespace pup::models {

DeepFm::DeepFm(DeepFmConfig config) : deep_config_(std::move(config)) {
  config_.embedding_dim = deep_config_.embedding_dim;
  config_.init_stddev = deep_config_.init_stddev;
  config_.train = deep_config_.train;
}

void DeepFm::Fit(const data::Dataset& dataset,
                 const std::vector<data::Interaction>& train) {
  Rng rng(config_.train.seed);
  InitializeFm(dataset, &rng);

  const size_t d = config_.embedding_dim;
  const size_t h1 = deep_config_.hidden1;
  const size_t h2 = deep_config_.hidden2;
  // He-style init keeps ReLU activations at a healthy scale.
  auto he = [&](size_t rows, size_t cols) {
    return ag::Param(la::Matrix::Gaussian(
        rows, cols, std::sqrt(2.0f / static_cast<float>(rows)), &rng));
  };
  w1_ = he(4 * d, h1);
  b1_ = ag::Param(la::Matrix(1, h1));
  w2_ = he(h1, h2);
  b2_ = ag::Param(la::Matrix(1, h2));
  w3_ = he(h2, 1);
  b3_ = ag::Param(la::Matrix(1, 1));

  train::TrainBpr(this, dataset, train, config_.train);
  BuildFmScorer();

  // --- Inference cache: factorize the first layer by field. ---
  // Row blocks of w1_: [user | item | category | price], d rows each.
  const auto& w1 = w1_->value;
  auto block_product = [&](const la::Matrix& vecs, size_t block) {
    // vecs (n, d) times rows [block*d, (block+1)*d) of w1 -> (n, h1).
    la::Matrix out(vecs.rows(), h1);
    for (size_t r = 0; r < vecs.rows(); ++r) {
      const float* v = vecs.Row(r);
      float* o = out.Row(r);
      for (size_t j = 0; j < d; ++j) {
        const float* w_row = w1.Row(block * d + j);
        const float vj = v[j];
        for (size_t c = 0; c < h1; ++c) o[c] += vj * w_row[c];
      }
    }
    return out;
  };

  const auto& emb = feature_emb_->value;
  la::Matrix user_vecs(dataset.num_users, d);
  for (uint32_t u = 0; u < dataset.num_users; ++u) {
    const float* src = emb.Row(UserFeature(u));
    std::copy(src, src + d, user_vecs.Row(u));
  }
  la::Matrix item_vecs(dataset.num_items, d), cat_vecs(dataset.num_items, d),
      price_vecs(dataset.num_items, d);
  for (uint32_t i = 0; i < dataset.num_items; ++i) {
    const float* ei = emb.Row(ItemFeature(i));
    const float* ec = emb.Row(item_category_feature_[i]);
    const float* ep = emb.Row(item_price_feature_[i]);
    std::copy(ei, ei + d, item_vecs.Row(i));
    std::copy(ec, ec + d, cat_vecs.Row(i));
    std::copy(ep, ep + d, price_vecs.Row(i));
  }

  user_pre1_ = block_product(user_vecs, 0);
  item_pre1_ = block_product(item_vecs, 1);
  la::Axpy(1.0f, block_product(cat_vecs, 2), &item_pre1_);
  la::Axpy(1.0f, block_product(price_vecs, 3), &item_pre1_);
  for (size_t i = 0; i < dataset.num_items; ++i) {
    float* row = item_pre1_.Row(i);
    for (size_t c = 0; c < h1; ++c) row[c] += b1_->value(0, c);
  }
}

void DeepFm::ScoreItems(uint32_t user, std::vector<float>* out) const {
  // FM part.
  Fm::ScoreItems(user, out);

  // Deep part: h = relu(item_pre1 + user_pre1[user]); two more layers.
  const size_t n = item_pre1_.rows();
  const size_t h1 = deep_config_.hidden1;
  const size_t h2 = deep_config_.hidden2;
  const float* upre = user_pre1_.Row(user);
  std::vector<float> a1(h1), a2(h2);
  for (size_t i = 0; i < n; ++i) {
    const float* ipre = item_pre1_.Row(i);
    for (size_t c = 0; c < h1; ++c) {
      a1[c] = std::max(0.0f, ipre[c] + upre[c]);
    }
    for (size_t c2 = 0; c2 < h2; ++c2) a2[c2] = b2_->value(0, c2);
    for (size_t c = 0; c < h1; ++c) {
      const float v = a1[c];
      if (v == 0.0f) continue;
      const float* w_row = w2_->value.Row(c);
      for (size_t c2 = 0; c2 < h2; ++c2) a2[c2] += v * w_row[c2];
    }
    float s = b3_->value(0, 0);
    for (size_t c2 = 0; c2 < h2; ++c2) {
      s += std::max(0.0f, a2[c2]) * w3_->value(c2, 0);
    }
    (*out)[i] += s;
  }
}

train::TrainableState DeepFm::State() {
  train::TrainableState state = Fm::State();
  state.key = "deep-fm";
  state.tensors.emplace_back("w1", w1_);
  state.tensors.emplace_back("b1", b1_);
  state.tensors.emplace_back("w2", w2_);
  state.tensors.emplace_back("b2", b2_);
  state.tensors.emplace_back("w3", w3_);
  state.tensors.emplace_back("b3", b3_);
  return state;
}

ag::Tensor DeepFm::DeepScore(const FieldEmbeddings& fields) {
  ag::Tensor x = ag::ConcatCols(
      {fields.user, fields.item, fields.category, fields.price});
  ag::Tensor h1 =
      ag::LeakyRelu(ag::AddBroadcastRow(ag::MatMul(x, w1_), b1_));
  ag::Tensor h2 =
      ag::LeakyRelu(ag::AddBroadcastRow(ag::MatMul(h1, w2_), b2_));
  return ag::AddBroadcastRow(ag::MatMul(h2, w3_), b3_);
}

train::BprTrainable::BatchGraph DeepFm::ForwardBatch(
    const std::vector<uint32_t>& users, const std::vector<uint32_t>& pos_items,
    const std::vector<uint32_t>& neg_items, bool /*training*/) {
  BatchGraph batch;
  FieldEmbeddings pos_fields, neg_fields;
  ag::Tensor fm_pos = ScoreBatch(users, pos_items, &batch.l2_terms,
                                 &pos_fields);
  ag::Tensor fm_neg = ScoreBatch(users, neg_items, &batch.l2_terms,
                                 &neg_fields);
  batch.pos_scores = ag::Add(fm_pos, DeepScore(pos_fields));
  batch.neg_scores = ag::Add(fm_neg, DeepScore(neg_fields));
  return batch;
}

}  // namespace pup::models
