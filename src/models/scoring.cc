#include "models/scoring.h"

#include "common/check.h"

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
  // Keeps the historical bias-seeded accumulation order: the serial
  // regression goldens pin this exact float sequence. The serving layer
  // freezes these tables and scores them through la::ScoreItemsForUser
  // (dot first, bias after); its parity contract is defined against
  // IndexScorer, which uses that same kernel — see docs/serving.md.
  const size_t n = item_vecs_.rows();
  const size_t d = item_vecs_.cols();
  out->assign(n, 0.0f);
  const float* u = user_vecs_.Row(user);
  for (size_t i = 0; i < n; ++i) {
    const float* v = item_vecs_.Row(i);
    float acc = item_bias_.empty() ? 0.0f : item_bias_[i];
    for (size_t j = 0; j < d; ++j) acc += u[j] * v[j];
    (*out)[i] = acc;
  }
}

}  // namespace pup::models
