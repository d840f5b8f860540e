#include "models/bpr_mf.h"

#include "autograd/ops.h"
#include "common/rng.h"

namespace pup::models {

void BprMf::Fit(const data::Dataset& dataset,
                const std::vector<data::Interaction>& train) {
  Rng rng(config_.train.seed);
  user_emb_ = ag::Param(la::Matrix::Gaussian(
      dataset.num_users, config_.embedding_dim, config_.init_stddev, &rng));
  item_emb_ = ag::Param(la::Matrix::Gaussian(
      dataset.num_items, config_.embedding_dim, config_.init_stddev, &rng));
  train::TrainBpr(this, dataset, train, config_.train);
  scorer_ = DotScorer(user_emb_->value, item_emb_->value);
}

void BprMf::ScoreItems(uint32_t user, std::vector<float>* out) const {
  scorer_.ScoreItems(user, out);
}

train::TrainableState BprMf::State() {
  return {.key = "bpr-mf",
          .tensors = {{"user_emb", user_emb_}, {"item_emb", item_emb_}}};
}

train::BprTrainable::BatchGraph BprMf::ForwardBatch(
    const std::vector<uint32_t>& users, const std::vector<uint32_t>& pos_items,
    const std::vector<uint32_t>& neg_items, bool /*training*/) {
  BatchGraph batch;
  batch.user = ag::Gather(user_emb_, users);
  batch.pos = ag::Gather(item_emb_, pos_items);
  batch.neg = ag::Gather(item_emb_, neg_items);
  batch.l2_terms = {batch.user, batch.pos, batch.neg};
  return batch;
}

}  // namespace pup::models
