#include "graph/hetero_graph.h"

#include <utility>

#include "common/check.h"
#include "graph/neighbor_sampling.h"

namespace pup::graph {
namespace {

// Appends both directions of an undirected edge.
void AddUndirected(std::vector<la::Triplet>* triplets, uint32_t a,
                   uint32_t b) {
  triplets->push_back({a, b, 1.0f});
  triplets->push_back({b, a, 1.0f});
}

// Collapses duplicate edges to a 0/1 adjacency, optionally caps per-node
// fan-in by weighted sampling, adds self-loops, and row-normalizes:
// Â = rowavg(sample(A) + I). `triplets` holds the data edges only (no
// self-loops) so the sampled path can cap real neighbors while every node
// keeps its self-connection.
la::CsrMatrix BuildNormalizedAdjacency(size_t num_nodes,
                                       std::vector<la::Triplet> triplets,
                                       bool add_self_loops,
                                       size_t max_neighbors,
                                       uint64_t neighbor_seed) {
  // Duplicate interactions collapse via triplet summation; clamp weights
  // back to 1 so the graph stays a 0/1 adjacency before normalization.
  la::CsrMatrix raw = la::CsrMatrix::FromTriplets(num_nodes, num_nodes,
                                                  std::move(triplets));
  std::vector<la::Triplet> binary;
  binary.reserve(raw.nnz());
  for (size_t r = 0; r < raw.rows(); ++r) {
    for (uint32_t k = raw.row_ptr()[r]; k < raw.row_ptr()[r + 1]; ++k) {
      binary.push_back({static_cast<uint32_t>(r), raw.col_idx()[k], 1.0f});
    }
  }
  la::CsrMatrix a = la::CsrMatrix::FromTriplets(num_nodes, num_nodes,
                                                std::move(binary));
  if (max_neighbors > 0) {
    a = SampleNeighbors(a, max_neighbors, neighbor_seed);
  }
  if (add_self_loops) {
    std::vector<la::Triplet> with_loops;
    with_loops.reserve(a.nnz() + num_nodes);
    for (size_t r = 0; r < a.rows(); ++r) {
      for (uint32_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
        with_loops.push_back(
            {static_cast<uint32_t>(r), a.col_idx()[k], 1.0f});
      }
    }
    for (uint32_t n = 0; n < num_nodes; ++n) {
      with_loops.push_back({n, n, 1.0f});
    }
    a = la::CsrMatrix::FromTriplets(num_nodes, num_nodes,
                                    std::move(with_loops));
  }
  return a.RowAveraged();
}

// The paper's item blocks {category, price}. A block its toggle turns off
// gets no values: it keeps its node range but adds no edges.
std::vector<AttributeBlock> CategoryPriceBlocks(
    size_t num_items, size_t num_categories, size_t num_price_levels,
    const std::vector<uint32_t>& item_categories,
    const std::vector<uint32_t>& item_prices,
    const HeteroGraphOptions& options) {
  PUP_CHECK_EQ(item_categories.size(), num_items);
  PUP_CHECK_EQ(item_prices.size(), num_items);
  std::vector<AttributeBlock> blocks = {{num_categories, item_categories},
                                        {num_price_levels, item_prices}};
  if (!options.use_category_nodes) blocks[0].values = {};
  if (!options.use_price_nodes) blocks[1].values = {};
  return blocks;
}

}  // namespace

HeteroGraph::HeteroGraph(
    size_t num_users, size_t num_items,
    const std::vector<std::pair<uint32_t, uint32_t>>& interactions,
    const std::vector<AttributeBlock>& item_blocks,
    const std::vector<AttributeBlock>& user_blocks,
    const HeteroGraphOptions& options)
    : num_users_(num_users), num_items_(num_items) {
  std::vector<la::Triplet> triplets;
  triplets.reserve(2 * (interactions.size() + num_items * item_blocks.size() +
                        num_users * user_blocks.size()));
  for (const auto& [u, i] : interactions) {
    PUP_CHECK(u < num_users && i < num_items);
    AddUndirected(&triplets, UserNode(u), ItemNode(i));
  }
  // Lays one side's blocks out after the nodes placed so far and links
  // entity e of that side (node `first + e`) to its value in each block.
  size_t offset = num_users + num_items;
  auto add_blocks = [&](const std::vector<AttributeBlock>& blocks,
                        size_t num_entities, uint32_t first,
                        std::vector<uint32_t>* offsets) {
    for (const AttributeBlock& block : blocks) {
      const auto begin = static_cast<uint32_t>(offset);
      offsets->push_back(begin);
      PUP_CHECK(block.values.empty() || block.values.size() == num_entities);
      for (uint32_t e = 0; e < block.values.size(); ++e) {
        PUP_CHECK(block.values[e] < block.cardinality);
        AddUndirected(&triplets, first + e, begin + block.values[e]);
      }
      offset += block.cardinality;
    }
  };
  add_blocks(item_blocks, num_items, ItemNode(0), &item_block_offsets_);
  add_blocks(user_blocks, num_users, UserNode(0), &user_block_offsets_);
  num_nodes_ = offset;

  adj_ = BuildNormalizedAdjacency(num_nodes_, std::move(triplets),
                                  options.add_self_loops,
                                  options.max_neighbors,
                                  options.neighbor_seed);
  adj_t_ = adj_.Transposed();
}

HeteroGraph::HeteroGraph(
    size_t num_users, size_t num_items, size_t num_categories,
    size_t num_price_levels,
    const std::vector<std::pair<uint32_t, uint32_t>>& interactions,
    const std::vector<uint32_t>& item_categories,
    const std::vector<uint32_t>& item_prices, const HeteroGraphOptions& options)
    : HeteroGraph(num_users, num_items, interactions,
                  CategoryPriceBlocks(num_items, num_categories,
                                      num_price_levels, item_categories,
                                      item_prices, options),
                  {}, options) {}

}  // namespace pup::graph
