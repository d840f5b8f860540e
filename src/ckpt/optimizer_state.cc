#include "ckpt/optimizer_state.h"

namespace pup::ckpt {

Status SaveOptimizerState(const ag::Optimizer& optimizer, Writer* writer) {
  const ag::OptimizerState& state = optimizer.ExportState();
  writer->AddU64("optim/step", static_cast<uint64_t>(state.step));
  writer->AddF32("optim/lr", state.learning_rate);
  writer->AddU64("optim/num_slots", state.slots.size());
  for (size_t i = 0; i < state.slots.size(); ++i) {
    writer->AddMatrix("optim/slot/" + std::to_string(i), state.slots[i]);
  }
  return Status::OK();
}

Result<ag::OptimizerState> ReadOptimizerState(const Reader& reader) {
  ag::OptimizerState state;
  PUP_ASSIGN_OR_RETURN(uint64_t step, reader.GetU64("optim/step"));
  state.step = static_cast<int64_t>(step);
  PUP_ASSIGN_OR_RETURN(state.learning_rate, reader.GetF32("optim/lr"));
  PUP_ASSIGN_OR_RETURN(uint64_t num_slots, reader.GetU64("optim/num_slots"));
  state.slots.reserve(num_slots);
  for (uint64_t i = 0; i < num_slots; ++i) {
    PUP_ASSIGN_OR_RETURN(la::Matrix slot,
                         reader.GetMatrix("optim/slot/" + std::to_string(i)));
    state.slots.push_back(std::move(slot));
  }
  return state;
}

Status LoadOptimizerState(const Reader& reader, ag::Optimizer* optimizer) {
  PUP_ASSIGN_OR_RETURN(ag::OptimizerState state, ReadOptimizerState(reader));
  return optimizer->ImportState(state);
}

}  // namespace pup::ckpt
