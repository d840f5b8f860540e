#include "autograd/optimizer.h"

#include <cmath>

#include "common/check.h"
#include "la/kernels.h"

namespace pup::ag {

Optimizer::Optimizer(std::vector<Tensor> params)
    : params_(std::move(params)) {
  for (const Tensor& p : params_) {
    PUP_CHECK_MSG(p && p->requires_grad,
                  "optimizer parameters must be trainable leaves");
  }
}

void Optimizer::ZeroGrad() {
  for (const Tensor& p : params_) p->ZeroGrad();
}

Status Optimizer::ValidateState(const OptimizerState& state) const {
  const std::vector<la::Matrix>& live = state_.slots;
  if (state.slots.size() != live.size()) {
    return Status::InvalidArgument(
        "optimizer state has " + std::to_string(state.slots.size()) +
        " slots, expected " + std::to_string(live.size()));
  }
  for (size_t i = 0; i < live.size(); ++i) {
    if (!state.slots[i].SameShape(live[i])) {
      return Status::InvalidArgument("optimizer slot " + std::to_string(i) +
                                     " shape mismatch");
    }
  }
  return Status::OK();
}

Status Optimizer::ImportState(const OptimizerState& state) {
  PUP_RETURN_NOT_OK(ValidateState(state));
  state_ = state;  // Same slot shapes: each copy reuses its buffer.
  return Status::OK();
}

Adam::Adam(std::vector<Tensor> params, Options options)
    : Optimizer(std::move(params)), options_(options) {
  state_.learning_rate = options_.learning_rate;
  const size_t k = params_.size();
  state_.slots.reserve(2 * k);
  for (size_t i = 0; i < 2 * k; ++i) {
    const la::Matrix& value = params_[i % k]->value;
    state_.slots.emplace_back(value.rows(), value.cols());
  }
}

// PUP_HOT
void Adam::Step() {
  const int64_t t = ++state_.step;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const la::AdamStep step = {
      .learning_rate = state_.learning_rate,
      .beta1 = b1,
      .beta2 = b2,
      .epsilon = options_.epsilon,
      .weight_decay = options_.weight_decay,
      .bias1 = 1.0f - std::pow(b1, static_cast<float>(t)),
      .bias2 = 1.0f - std::pow(b2, static_cast<float>(t)),
  };
  const size_t n = params_.size();
  for (size_t k = 0; k < n; ++k) {
    const Tensor& p = params_[k];
    if (!p->grad_live()) continue;  // Never touched this step.
    la::AdamUpdate(step, p->grad, &p->value, &state_.slots[k],
                   &state_.slots[n + k]);
  }
}

}  // namespace pup::ag
