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

/// Base class: owns the parameter list and the update state, applies
/// Step() from accumulated gradients, then the caller zeroes gradients for
/// the next batch.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params);
  virtual ~Optimizer() = default;

  /// Applies one update from the parameters' current .grad values.
  virtual void Step() = 0;

  /// Zeroes every parameter's gradient.
  void ZeroGrad();

  /// Current learning rate.
  float learning_rate() const { return state_.learning_rate; }

  /// Changes the learning rate (used for the paper's /10 decay schedule).
  void SetLearningRate(float lr) { state_.learning_rate = lr; }

  /// The full update state (see OptimizerState): the live step, rate and
  /// slots, not a copy, so a checkpoint writer reads the moments in
  /// place. The reference is valid for the optimizer's lifetime and sees
  /// every later Step.
  const OptimizerState& ExportState() const { return state_; }

  /// Checks that `state` could be imported into this optimizer (slot
  /// count and shapes) without mutating anything. ImportState runs the
  /// same check first; callers that must sequence several restores
  /// all-or-nothing (train::TryResumeCheckpoint) call this up front so a
  /// doomed import is rejected before any sibling state is mutated.
  Status ValidateState(const OptimizerState& state) const;

  /// Restores a state exported by the same optimizer type over the same
  /// parameter shapes. Validates everything (ValidateState) before
  /// mutating, so a failed import leaves the optimizer untouched.
  Status ImportState(const OptimizerState& state);

  const std::vector<Tensor>& params() const { return params_; }

 protected:
  std::vector<Tensor> params_;
  /// Step counter, learning rate (default 1e-2) and the subclass's slots.
  OptimizerState state_ = {.step = 0, .learning_rate = 1e-2f, .slots = {}};
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

  /// Slots: [m_0 … m_{k-1}, v_0 … v_{k-1}] for k parameters — the first-
  /// and second-moment estimates, updated in place by Step.
  Adam(std::vector<Tensor> params, Options options);
  void Step() override;

 private:
  Options options_;
};

}  // namespace pup::ag
