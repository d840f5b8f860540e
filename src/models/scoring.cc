#include "models/scoring.h"

#include "common/check.h"
#include "la/kernels.h"

namespace pup::models {

DotScorer::DotScorer(la::Matrix user_vecs, la::Matrix item_vecs,
                     std::vector<float> item_bias)
    : user_vecs_(std::move(user_vecs)),
      item_vecs_(std::move(item_vecs)),
      item_bias_(std::move(item_bias)) {
  PUP_CHECK_EQ(user_vecs_.cols(), item_vecs_.cols());
  if (!item_bias_.empty()) {
    PUP_CHECK_EQ(item_bias_.size(), item_vecs_.rows());
  }
}

void DotScorer::ScoreItems(uint32_t user, std::vector<float>* out) const {
  PUP_CHECK_MSG(initialized(), "DotScorer used before Fit");
  PUP_CHECK(user < user_vecs_.rows());
  out->resize(item_vecs_.rows());
  la::ScoreItemsForUser(item_vecs_, user_vecs_.Row(user),
                        item_bias_.empty() ? nullptr : item_bias_.data(),
                        out->data());
}

}  // namespace pup::models
