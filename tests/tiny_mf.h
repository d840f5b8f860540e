// TinyMf — the smallest BprTrainable: plain MF over two embedding tables,
// enough to exercise the training loop, its threading and SIMD contracts,
// and checkpoint resume without a production model's graph or scorer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "autograd/ops.h"
#include "autograd/tensor.h"
#include "common/rng.h"
#include "la/matrix.h"
#include "train/trainer.h"

namespace pup {

class TinyMf : public train::BprTrainable {
 public:
  TinyMf(size_t num_users, size_t num_items, size_t dim, uint64_t seed) {
    Rng rng(seed);
    users_ = ag::Param(la::Matrix::Gaussian(num_users, dim, 0.1f, &rng));
    items_ = ag::Param(la::Matrix::Gaussian(num_items, dim, 0.1f, &rng));
  }

  train::TrainableState State() override {
    return {.key = "tiny-mf",
            .tensors = {{"users", users_}, {"items", items_}}};
  }

  BatchGraph ForwardBatch(const std::vector<uint32_t>& users,
                          const std::vector<uint32_t>& pos,
                          const std::vector<uint32_t>& neg,
                          bool /*training*/) override {
    ag::Tensor u = ag::Gather(users_, users);
    BatchGraph b;
    b.pos_scores = ag::RowDot(u, ag::Gather(items_, pos));
    b.neg_scores = ag::RowDot(u, ag::Gather(items_, neg));
    b.l2_terms = {u};
    return b;
  }

  ag::Tensor users_, items_;
};

}  // namespace pup
