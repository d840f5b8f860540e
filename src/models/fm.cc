#include "models/fm.h"

#include "autograd/ops.h"
#include "common/check.h"
#include "common/rng.h"
#include "la/kernels.h"

namespace pup::models {

void Fm::InitializeFm(const data::Dataset& dataset, Rng* rng) {
  PUP_CHECK_MSG(!dataset.item_price_level.empty(),
                "FM needs quantized price levels");
  num_users_ = dataset.num_users;
  num_items_ = dataset.num_items;
  const auto first_category =
      static_cast<uint32_t>(dataset.num_users + dataset.num_items);
  const auto first_price =
      static_cast<uint32_t>(first_category + dataset.num_categories);
  item_category_feature_.resize(dataset.num_items);
  item_price_feature_.resize(dataset.num_items);
  for (size_t i = 0; i < dataset.num_items; ++i) {
    item_category_feature_[i] = first_category + dataset.item_category[i];
    item_price_feature_[i] = first_price + dataset.item_price_level[i];
  }
  const size_t num_features = first_price + dataset.num_price_levels;
  feature_emb_ = ag::Param(la::Matrix::Gaussian(
      num_features, config_.embedding_dim, config_.init_stddev, rng));
  feature_bias_ = ag::Param(la::Matrix(num_features, 1));
}

void Fm::Fit(const data::Dataset& dataset,
             const std::vector<data::Interaction>& train) {
  Rng rng(config_.train.seed);
  InitializeFm(dataset, &rng);
  train::TrainBpr(this, dataset, train, config_.train);
  BuildFmScorer();
}

void Fm::BuildFmScorer() {
  // Fold per-item constants into a DotScorer:
  //   score(u, i) = e_u · (e_i + e_c + e_p)
  //               + (e_i·e_c + e_i·e_p + e_c·e_p) + b_i + b_c + b_p.
  // (User-only terms are constant per user and do not affect ranking.)
  const auto& emb = feature_emb_->value;
  const auto& bias = feature_bias_->value;
  const size_t d = config_.embedding_dim;
  la::Matrix user_vecs(num_users_, d);
  for (size_t u = 0; u < num_users_; ++u) {
    const float* src = emb.Row(UserFeature(static_cast<uint32_t>(u)));
    std::copy(src, src + d, user_vecs.Row(u));
  }
  la::Matrix item_vecs(num_items_, d);
  std::vector<float> item_bias(num_items_, 0.0f);
  for (uint32_t i = 0; i < num_items_; ++i) {
    const float* ei = emb.Row(ItemFeature(i));
    const float* ec = emb.Row(item_category_feature_[i]);
    const float* ep = emb.Row(item_price_feature_[i]);
    float* dst = item_vecs.Row(i);
    float ic = 0.0f, ip = 0.0f, cp = 0.0f;
    for (size_t j = 0; j < d; ++j) {
      dst[j] = ei[j] + ec[j] + ep[j];
      ic += ei[j] * ec[j];
      ip += ei[j] * ep[j];
      cp += ec[j] * ep[j];
    }
    item_bias[i] = ic + ip + cp + bias(ItemFeature(i), 0) +
                   bias(item_category_feature_[i], 0) +
                   bias(item_price_feature_[i], 0);
  }
  scorer_ = DotScorer(std::move(user_vecs), std::move(item_vecs),
                      std::move(item_bias));
}

void Fm::ScoreItems(uint32_t user, std::vector<float>* out) const {
  scorer_.ScoreItems(user, out);
}

train::TrainableState Fm::State() {
  return {.key = "fm",
          .tensors = {{"feature_emb", feature_emb_},
                      {"feature_bias", feature_bias_}}};
}

ag::Tensor Fm::ScoreBatch(const std::vector<uint32_t>& users,
                          const std::vector<uint32_t>& items,
                          std::vector<ag::Tensor>* l2_terms,
                          FieldEmbeddings* fields) {
  // NOLINTNEXTLINE(pup-hot-transitive): member scratch sized to the batch; capacity is retained across steps.
  f_user_.resize(users.size());
  f_item_.resize(items.size());  // NOLINT(pup-hot-transitive): see above.
  f_cat_.resize(items.size());  // NOLINT(pup-hot-transitive): see above.
  f_price_.resize(items.size());  // NOLINT(pup-hot-transitive): see above.
  for (size_t k = 0; k < users.size(); ++k) {
    f_user_[k] = UserFeature(users[k]);
    f_item_[k] = ItemFeature(items[k]);
    f_cat_[k] = item_category_feature_[items[k]];
    f_price_[k] = item_price_feature_[items[k]];
  }
  ag::Tensor eu = ag::Gather(feature_emb_, f_user_);
  ag::Tensor ei = ag::Gather(feature_emb_, f_item_);
  ag::Tensor ec = ag::Gather(feature_emb_, f_cat_);
  ag::Tensor ep = ag::Gather(feature_emb_, f_price_);

  // Linear-time pairwise sum (eq. 7): ½(‖Σe‖² − Σ‖e‖²) per row.
  ag::Tensor sum = ag::Add(ag::Add(eu, ei), ag::Add(ec, ep));
  ag::Tensor s1 = ag::RowDot(sum, sum);
  ag::Tensor s2 = ag::Add(ag::Add(ag::RowDot(eu, eu), ag::RowDot(ei, ei)),
                          ag::Add(ag::RowDot(ec, ec), ag::RowDot(ep, ep)));
  ag::Tensor pairwise = ag::Scale(ag::Sub(s1, s2), 0.5f);

  // Fused bias lookups: two GatherAdd nodes instead of four gathers and
  // two adds; the backward scatter order into the shared bias table
  // (price, cat, item, user) matches the unfused composition bitwise.
  ag::Tensor linear =
      ag::Add(ag::GatherAdd(feature_bias_, f_user_, feature_bias_, f_item_),
              ag::GatherAdd(feature_bias_, f_cat_, feature_bias_, f_price_));

  if (fields != nullptr) {
    *fields = {eu, ei, ec, ep};
  }
  if (l2_terms != nullptr) {
    l2_terms->push_back(eu);  // NOLINT(pup-hot-transitive): <= #fields terms.
    l2_terms->push_back(ei);  // NOLINT(pup-hot-transitive): <= #fields terms.
    l2_terms->push_back(ec);  // NOLINT(pup-hot-transitive): <= #fields terms.
    l2_terms->push_back(ep);  // NOLINT(pup-hot-transitive): <= #fields terms.
  }
  return ag::Add(pairwise, linear);
}

train::BprTrainable::BatchGraph Fm::ForwardBatch(
    const std::vector<uint32_t>& users, const std::vector<uint32_t>& pos_items,
    const std::vector<uint32_t>& neg_items, bool /*training*/) {
  BatchGraph batch;
  batch.pos_scores = ScoreBatch(users, pos_items, &batch.l2_terms);
  batch.neg_scores = ScoreBatch(users, neg_items, &batch.l2_terms);
  return batch;
}

}  // namespace pup::models
