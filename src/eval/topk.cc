#include "eval/topk.h"

#include <algorithm>

namespace pup::eval {
namespace {

/// The one ordering rule of the library: a ranks ahead of b iff it has
/// the higher score, or the same score and the smaller index.
struct Better {
  const float* scores;
  bool operator()(uint32_t a, uint32_t b) const {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  }
};

}  // namespace

void TopKSelector::Reserve(size_t k) { heap_.reserve(k); }

// PUP_HOT: runs once or twice per request in the serving engine and
// once per user in ranking eval; allocation-free within Reserve'd k.
void TopKSelector::Select(const float* scores, size_t n, size_t k,
                          std::vector<uint32_t>* out) {
  const Better better{scores};
  const size_t kk = std::min(k, n);
  heap_.clear();
  if (kk == 0) {
    out->clear();
    return;
  }
  // With comparator `better` as "less", the heap front is the max under
  // it — i.e. the *worst* of the kept k — so each candidate needs one
  // comparison against the front and only displaces it when it wins.
  for (size_t i = 0; i < kk; ++i) {
    heap_.push_back(static_cast<uint32_t>(i));  // NOLINT(pup-hot-alloc, pup-hot-transitive): <= k into reserved heap_.
    std::push_heap(heap_.begin(), heap_.end(), better);
  }
  // Steady state: almost every candidate loses to the kept k, so the
  // hot path is ONE predictable scalar compare against the cached
  // front score — no heap-front indirection, no tie-break branch. Only
  // candidates at or above the threshold (ties included, so the strict
  // (score desc, id asc) order is preserved exactly; a NaN score also
  // fails the fast reject and falls through to the exact comparator,
  // keeping behaviour identical to the pre-threshold code on any input)
  // reach the exact heap update.
  float front_score = scores[heap_.front()];
  for (size_t i = kk; i < n; ++i) {
    if (scores[i] < front_score) continue;
    const uint32_t id = static_cast<uint32_t>(i);
    if (!better(id, heap_.front())) continue;
    std::pop_heap(heap_.begin(), heap_.end(), better);
    heap_.back() = id;
    std::push_heap(heap_.begin(), heap_.end(), better);
    front_score = scores[heap_.front()];
  }
  // NOLINTNEXTLINE(pup-hot-alloc): copies <= k ids into a reserved buffer.
  out->assign(heap_.begin(), heap_.end());
  // `better` is a strict total order (ties split by index), so sorting
  // the k survivors reproduces the full-sort prefix exactly.
  std::sort(out->begin(), out->end(), better);
}

double OverlapRecall(const std::vector<uint32_t>& exact,
                     const std::vector<uint32_t>& approx) {
  if (exact.empty()) return 1.0;
  std::vector<uint32_t> e(exact);
  std::vector<uint32_t> a(approx);
  std::sort(e.begin(), e.end());
  std::sort(a.begin(), a.end());
  size_t hits = 0;
  size_t j = 0;
  for (uint32_t id : e) {
    while (j < a.size() && a[j] < id) ++j;
    if (j < a.size() && a[j] == id) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(e.size());
}

}  // namespace pup::eval
