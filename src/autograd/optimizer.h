// First-order optimizers over autograd parameters.
#pragma once

#include <vector>

#include "autograd/tensor.h"
#include "common/status.h"

namespace pup::ag {

/// Serializable optimizer state: the step counter, the learning rate, and
/// the moment/state buffers in an optimizer-defined slot order (Adam: all
/// first moments, then all second moments). Restoring an exported state
/// into a same-shaped optimizer replays updates bitwise-identically — the
/// optimizer half of checkpoint resume (ckpt/).
struct OptimizerState {
  int64_t step = 0;
  float learning_rate = 0.0f;
  std::vector<la::Matrix> slots;
};

/// Base class: owns the parameter list, applies Step() from accumulated
/// gradients, then the caller zeroes gradients for the next batch.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params);
  virtual ~Optimizer() = default;

  /// Applies one update from the parameters' current .grad values.
  virtual void Step() = 0;

  /// Zeroes every parameter's gradient.
  void ZeroGrad();

  /// Current learning rate.
  float learning_rate() const { return learning_rate_; }

  /// Changes the learning rate (used for the paper's /10 decay schedule).
  void SetLearningRate(float lr) { learning_rate_ = lr; }

  /// Exports the full update state (see OptimizerState). Base: step 0,
  /// the learning rate, no slots.
  virtual OptimizerState ExportState() const;

  /// Checks that `state` could be imported into this optimizer (slot
  /// count and shapes) without mutating anything. ImportState runs the
  /// same check first; callers that must sequence several restores
  /// all-or-nothing (train::TryResumeCheckpoint) call this up front so a
  /// doomed import is rejected before any sibling state is mutated.
  virtual Status ValidateState(const OptimizerState& state) const;

  /// Restores a state exported by the same optimizer type over the same
  /// parameter shapes. Validates everything (ValidateState) before
  /// mutating, so a failed import leaves the optimizer untouched.
  virtual Status ImportState(const OptimizerState& state);

  const std::vector<Tensor>& params() const { return params_; }

 protected:
  std::vector<Tensor> params_;
  float learning_rate_ = 1e-2f;
};

/// Adam (Kingma & Ba) with optional decoupled L2 weight decay.
///
/// The paper trains every model with Adam at lr = 1e-2, decayed by a
/// factor of 10 twice during the run.
class Adam : public Optimizer {
 public:
  struct Options {
    float learning_rate = 1e-2f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float epsilon = 1e-8f;
    float weight_decay = 0.0f;
  };

  Adam(std::vector<Tensor> params, Options options);
  void Step() override;

  /// Slots: [m_0 … m_{k-1}, v_0 … v_{k-1}] for k parameters.
  OptimizerState ExportState() const override;
  Status ValidateState(const OptimizerState& state) const override;
  Status ImportState(const OptimizerState& state) override;

 private:
  Options options_;
  int64_t t_ = 0;
  std::vector<la::Matrix> m_;  // First-moment estimates, one per param.
  std::vector<la::Matrix> v_;  // Second-moment estimates.
};

}  // namespace pup::ag
