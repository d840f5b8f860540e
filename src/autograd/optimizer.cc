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

OptimizerState Optimizer::ExportState() const {
  OptimizerState state;
  state.learning_rate = learning_rate_;
  return state;
}

Status Optimizer::ValidateState(const OptimizerState& state) const {
  if (!state.slots.empty()) {
    return Status::InvalidArgument(
        "optimizer state has " + std::to_string(state.slots.size()) +
        " slots but this optimizer keeps none");
  }
  return Status::OK();
}

Status Optimizer::ImportState(const OptimizerState& state) {
  PUP_RETURN_NOT_OK(ValidateState(state));
  learning_rate_ = state.learning_rate;
  return Status::OK();
}

Adam::Adam(std::vector<Tensor> params, Options options)
    : Optimizer(std::move(params)), options_(options) {
  learning_rate_ = options_.learning_rate;
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Tensor& p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

OptimizerState Adam::ExportState() const {
  OptimizerState state;
  state.step = t_;
  state.learning_rate = learning_rate_;
  state.slots.reserve(2 * params_.size());
  for (const la::Matrix& m : m_) state.slots.push_back(m);
  for (const la::Matrix& v : v_) state.slots.push_back(v);
  return state;
}

Status Adam::ValidateState(const OptimizerState& state) const {
  const size_t k = params_.size();
  if (state.slots.size() != 2 * k) {
    return Status::InvalidArgument(
        "Adam state has " + std::to_string(state.slots.size()) +
        " slots, expected " + std::to_string(2 * k));
  }
  for (size_t i = 0; i < k; ++i) {
    if (!state.slots[i].SameShape(m_[i]) ||
        !state.slots[k + i].SameShape(v_[i])) {
      return Status::InvalidArgument(
          "Adam moment shape mismatch at parameter " + std::to_string(i));
    }
  }
  return Status::OK();
}

Status Adam::ImportState(const OptimizerState& state) {
  PUP_RETURN_NOT_OK(ValidateState(state));
  const size_t k = params_.size();
  t_ = state.step;
  learning_rate_ = state.learning_rate;
  for (size_t i = 0; i < k; ++i) {
    m_[i] = state.slots[i];
    v_[i] = state.slots[k + i];
  }
  return Status::OK();
}

// PUP_HOT
void Adam::Step() {
  ++t_;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const la::AdamStep step = {
      .learning_rate = learning_rate_,
      .beta1 = b1,
      .beta2 = b2,
      .epsilon = options_.epsilon,
      .weight_decay = options_.weight_decay,
      .bias1 = 1.0f - std::pow(b1, static_cast<float>(t_)),
      .bias2 = 1.0f - std::pow(b2, static_cast<float>(t_)),
  };
  for (size_t k = 0; k < params_.size(); ++k) {
    const Tensor& p = params_[k];
    if (!p->grad_live()) continue;  // Never touched this step.
    la::AdamUpdate(step, p->grad, &p->value, &m_[k], &v_[k]);
  }
}

}  // namespace pup::ag
