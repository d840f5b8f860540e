// Optimizer state in checkpoints: an optimizer's exported moments, step
// and learning rate as "optim/…" sections.
#pragma once

#include "autograd/optimizer.h"
#include "ckpt/checkpoint.h"
#include "common/status.h"

namespace pup::ckpt {

/// Adds `optimizer`'s exported state as "optim/…" sections. The slot
/// sections borrow the optimizer's live moments (Writer::AddMatrix), so
/// the optimizer must outlive `writer`'s WriteFile and not Step before it.
Status SaveOptimizerState(const ag::Optimizer& optimizer, Writer* writer);

/// Reads the "optim/…" sections written by SaveOptimizerState into a
/// staged OptimizerState without touching any optimizer. Callers that
/// must restore several components all-or-nothing (the trainer's resume)
/// stage with this + Optimizer::ValidateState before mutating anything.
Result<ag::OptimizerState> ReadOptimizerState(const Reader& reader);

/// Restores "optim/…" sections written by SaveOptimizerState
/// (ReadOptimizerState + Optimizer::ImportState). Validates slot count
/// and shapes before committing.
Status LoadOptimizerState(const Reader& reader, ag::Optimizer* optimizer);

}  // namespace pup::ckpt
