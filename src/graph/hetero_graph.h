// The unified heterogeneous graph of §III-A, with any number of
// categorical attribute blocks (§VII: "user profiles can be added as
// separate nodes linked to user nodes, while item features other than
// price and category can be integrated similarly").
//
// All nodes share one id space, laid out in blocks:
//   [ users | items | item-attribute blocks… | user-attribute blocks… ]
// with an edge (u, i) for every observed interaction, (i, a) for each
// item's value a in every item block, (u, b) for each user's value b in
// every user block, and a self-loop on every node. The paper's graph is
// the item blocks {category, price}; the GC-MC/NGCF user–item graph has no
// blocks. The normalized adjacency Â = rowavg(A + I) (eq. 5) and its
// transpose (needed by the SpMM backward pass) are built once and reused
// for every training step.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "la/csr.h"

namespace pup::graph {

/// Options controlling hetero-graph construction.
struct HeteroGraphOptions {
  /// Include item→category/category→item edges (PUP- removes them). Read
  /// by the {category, price} constructor only.
  bool use_category_nodes = true;
  /// Include item→price/price→item edges (PUP w/o p removes them). Read by
  /// the {category, price} constructor only.
  bool use_price_nodes = true;
  /// Add self-loops before normalizing (eq. 5; the paper cites [26] for
  /// why this matters — exposed so the ablation bench can switch it off).
  bool add_self_loops = true;
  /// PinSage-style per-node fan-in cap (graph/neighbor_sampling.h): nodes
  /// with more neighbors keep a weighted sample of this many, THEN get
  /// their self-loop, so every node still sees itself. 0 keeps every edge
  /// — the bitwise-golden default; sampling is bypassed entirely.
  size_t max_neighbors = 0;
  /// Seed of the per-row neighbor-sampling streams (read only when
  /// max_neighbors > 0).
  uint64_t neighbor_seed = 7;
};

/// One categorical attribute attached to every item or every user.
struct AttributeBlock {
  /// Number of distinct values: the node count this block contributes.
  size_t cardinality = 0;
  /// Value id (< cardinality) per item, or per user for a user block,
  /// read only while the graph is built. Empty: the block keeps its node
  /// range but adds no edges.
  std::span<const uint32_t> values;
};

/// Users, items and attribute nodes with their normalized adjacency.
class HeteroGraph {
 public:
  /// Builds the block-layout graph. `interactions` are (user, item) pairs
  /// with user < num_users and item < num_items; blocks are laid out in
  /// the order given. The two node toggles of `options` are not read.
  HeteroGraph(size_t num_users, size_t num_items,
              const std::vector<std::pair<uint32_t, uint32_t>>& interactions,
              const std::vector<AttributeBlock>& item_blocks,
              const std::vector<AttributeBlock>& user_blocks,
              const HeteroGraphOptions& options = {});

  /// Builds the paper's graph: item blocks {category, price}, where
  /// `item_categories[i]` < num_categories and `item_prices[i]` <
  /// num_price_levels. A block its toggle turns off keeps its nodes, each
  /// with only its self-loop.
  HeteroGraph(size_t num_users, size_t num_items, size_t num_categories,
              size_t num_price_levels,
              const std::vector<std::pair<uint32_t, uint32_t>>& interactions,
              const std::vector<uint32_t>& item_categories,
              const std::vector<uint32_t>& item_prices,
              const HeteroGraphOptions& options = {});

  size_t num_users() const { return num_users_; }
  size_t num_items() const { return num_items_; }

  /// Total node count across users, items and every block.
  size_t num_nodes() const { return num_nodes_; }

  // Global node ids.
  uint32_t UserNode(uint32_t u) const { return u; }
  uint32_t ItemNode(uint32_t i) const {
    return static_cast<uint32_t>(num_users_) + i;
  }
  /// Node of value `v` of item block `block`.
  uint32_t ItemAttributeNode(size_t block, uint32_t v) const {
    return item_block_offsets_[block] + v;
  }
  /// Node of value `v` of user block `block`.
  uint32_t UserAttributeNode(size_t block, uint32_t v) const {
    return user_block_offsets_[block] + v;
  }
  // The paper layout's category and price nodes: item blocks 0 and 1.
  uint32_t CategoryNode(uint32_t c) const { return ItemAttributeNode(0, c); }
  uint32_t PriceNode(uint32_t p) const { return ItemAttributeNode(1, p); }

  /// Normalized adjacency Â = rowavg(A + I), shape (num_nodes, num_nodes).
  const la::CsrMatrix& adjacency() const { return adj_; }

  /// Âᵀ, used by the backward pass of SpMM.
  const la::CsrMatrix& adjacency_transposed() const { return adj_t_; }

 private:
  size_t num_users_;
  size_t num_items_;
  size_t num_nodes_ = 0;
  // First node id of each block.
  std::vector<uint32_t> item_block_offsets_;
  std::vector<uint32_t> user_block_offsets_;
  la::CsrMatrix adj_;
  la::CsrMatrix adj_t_;
};

}  // namespace pup::graph
