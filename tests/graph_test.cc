// Tests for the heterogeneous graph construction (§III-A, eq. 5): the
// paper's {category, price} layout, the user–item layout with no blocks,
// arbitrary attribute blocks, and the byte-level pin of every layout.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "core/pup_model.h"
#include "graph/hetero_graph.h"

namespace pup::graph {
namespace {

// Tiny world: 2 users, 3 items, 2 categories, 2 price levels.
// Interactions: u0-i0, u0-i1, u1-i2. Items: i0 (c0, p0), i1 (c0, p1),
// i2 (c1, p1).
HeteroGraph MakeTinyGraph(const HeteroGraphOptions& options = {}) {
  return HeteroGraph(2, 3, 2, 2, {{0, 0}, {0, 1}, {1, 2}}, {0, 0, 1},
                     {0, 1, 1}, options);
}

TEST(HeteroGraphTest, NodeLayout) {
  HeteroGraph g = MakeTinyGraph();
  EXPECT_EQ(g.num_nodes(), 2u + 3u + 2u + 2u);
  EXPECT_EQ(g.UserNode(1), 1u);
  EXPECT_EQ(g.ItemNode(0), 2u);
  EXPECT_EQ(g.CategoryNode(0), 5u);
  EXPECT_EQ(g.PriceNode(0), 7u);
  EXPECT_EQ(g.PriceNode(1), 8u);
}

TEST(HeteroGraphTest, RowsSumToOne) {
  HeteroGraph g = MakeTinyGraph();
  const auto& adj = g.adjacency();
  for (size_t r = 0; r < adj.rows(); ++r) {
    float sum = 0.0f;
    for (uint32_t k = adj.row_ptr()[r]; k < adj.row_ptr()[r + 1]; ++k) {
      sum += adj.values()[k];
    }
    // Every node has at least a self-loop, so every row is non-empty and
    // row-averaged to exactly 1.
    EXPECT_NEAR(sum, 1.0f, 1e-6f) << "row " << r;
  }
}

TEST(HeteroGraphTest, SelfLoopsPresent) {
  HeteroGraph g = MakeTinyGraph();
  for (uint32_t n = 0; n < g.num_nodes(); ++n) {
    EXPECT_GT(g.adjacency().At(n, n), 0.0f) << "node " << n;
  }
}

TEST(HeteroGraphTest, SelfLoopsCanBeDisabled) {
  HeteroGraphOptions opts;
  opts.add_self_loops = false;
  HeteroGraph g = MakeTinyGraph(opts);
  // User 0 connects to items 0 and 1 only.
  EXPECT_EQ(g.adjacency().At(g.UserNode(0), g.UserNode(0)), 0.0f);
  EXPECT_EQ(g.adjacency().RowNnz(g.UserNode(0)), 2u);
}

TEST(HeteroGraphTest, EdgeStructureMatchesSpec) {
  HeteroGraph g = MakeTinyGraph();
  const auto& adj = g.adjacency();
  // u0 row: i0, i1, self → 3 entries of 1/3.
  EXPECT_EQ(adj.RowNnz(g.UserNode(0)), 3u);
  EXPECT_NEAR(adj.At(g.UserNode(0), g.ItemNode(0)), 1.0f / 3.0f, 1e-6f);
  EXPECT_NEAR(adj.At(g.UserNode(0), g.ItemNode(1)), 1.0f / 3.0f, 1e-6f);
  // i0 row: u0, c0, p0, self → 4 entries of 1/4.
  EXPECT_EQ(adj.RowNnz(g.ItemNode(0)), 4u);
  EXPECT_NEAR(adj.At(g.ItemNode(0), g.CategoryNode(0)), 0.25f, 1e-6f);
  EXPECT_NEAR(adj.At(g.ItemNode(0), g.PriceNode(0)), 0.25f, 1e-6f);
  // c0 row: i0, i1, self.
  EXPECT_EQ(adj.RowNnz(g.CategoryNode(0)), 3u);
  // p1 row: i1, i2, self.
  EXPECT_EQ(adj.RowNnz(g.PriceNode(1)), 3u);
  // No direct user-price edges.
  EXPECT_EQ(adj.At(g.UserNode(0), g.PriceNode(0)), 0.0f);
  // No direct user-category edges.
  EXPECT_EQ(adj.At(g.UserNode(0), g.CategoryNode(0)), 0.0f);
}

TEST(HeteroGraphTest, AdjacencySupportIsSymmetric) {
  HeteroGraph g = MakeTinyGraph();
  const auto& adj = g.adjacency();
  // Row normalization breaks value symmetry but not support symmetry.
  for (size_t r = 0; r < adj.rows(); ++r) {
    for (uint32_t k = adj.row_ptr()[r]; k < adj.row_ptr()[r + 1]; ++k) {
      uint32_t c = adj.col_idx()[k];
      EXPECT_GT(adj.At(c, r), 0.0f) << "(" << r << "," << c << ")";
    }
  }
}

TEST(HeteroGraphTest, TransposeConsistent) {
  HeteroGraph g = MakeTinyGraph();
  const auto& adj = g.adjacency();
  const auto& adj_t = g.adjacency_transposed();
  ASSERT_EQ(adj.nnz(), adj_t.nnz());
  for (size_t r = 0; r < adj.rows(); ++r) {
    for (uint32_t k = adj.row_ptr()[r]; k < adj.row_ptr()[r + 1]; ++k) {
      uint32_t c = adj.col_idx()[k];
      EXPECT_FLOAT_EQ(adj_t.At(c, r), adj.values()[k]);
    }
  }
}

TEST(HeteroGraphTest, DuplicateInteractionsCollapse) {
  // The same (u, i) observed twice must not double the edge weight.
  HeteroGraph g(1, 1, 1, 1, {{0, 0}, {0, 0}, {0, 0}}, {0}, {0});
  // User row: item + self → 2 entries of 1/2 each.
  EXPECT_EQ(g.adjacency().RowNnz(g.UserNode(0)), 2u);
  EXPECT_NEAR(g.adjacency().At(g.UserNode(0), g.ItemNode(0)), 0.5f, 1e-6f);
}

TEST(HeteroGraphTest, CategoryNodesRemovable) {
  HeteroGraphOptions opts;
  opts.use_category_nodes = false;
  HeteroGraph g = MakeTinyGraph(opts);
  // Item rows have no category edge: u + p + self = 3 entries.
  EXPECT_EQ(g.adjacency().RowNnz(g.ItemNode(0)), 3u);
  // Category node rows contain only their self-loop.
  EXPECT_EQ(g.adjacency().RowNnz(g.CategoryNode(0)), 1u);
}

TEST(HeteroGraphTest, PriceNodesRemovable) {
  HeteroGraphOptions opts;
  opts.use_price_nodes = false;
  HeteroGraph g = MakeTinyGraph(opts);
  EXPECT_EQ(g.adjacency().RowNnz(g.ItemNode(0)), 3u);  // u + c + self.
  EXPECT_EQ(g.adjacency().RowNnz(g.PriceNode(0)), 1u);
}

// ----------------------- User–item graph (no blocks) ----------------------

TEST(ZeroBlockGraphTest, LayoutAndStructure) {
  HeteroGraph g(2, 3, {{0, 0}, {0, 1}, {1, 2}}, {}, {});
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.ItemNode(0), 2u);
  // u0: i0, i1, self.
  EXPECT_EQ(g.adjacency().RowNnz(g.UserNode(0)), 3u);
  // i2: u1, self.
  EXPECT_EQ(g.adjacency().RowNnz(g.ItemNode(2)), 2u);
  // Row sums are 1.
  const auto& adj = g.adjacency();
  for (size_t r = 0; r < adj.rows(); ++r) {
    float sum = 0.0f;
    for (uint32_t k = adj.row_ptr()[r]; k < adj.row_ptr()[r + 1]; ++k) {
      sum += adj.values()[k];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
}

TEST(ZeroBlockGraphTest, NoSelfLoopOption) {
  HeteroGraph g(1, 1, {{0, 0}}, {}, {}, {.add_self_loops = false});
  EXPECT_EQ(g.adjacency().At(0, 0), 0.0f);
  EXPECT_EQ(g.adjacency().At(0, 1), 1.0f);
}

// ---------------------------- Attribute blocks ----------------------------

// 2 users, 3 items; item blocks: color (2 values), size (3 values); user
// block: tier (2 values).
const std::vector<uint32_t> kColor = {0, 1, 1}, kSize = {2, 0, 1},
                            kTier = {1, 0};

HeteroGraph MakeTinyBlockGraph() {
  return HeteroGraph(2, 3, {{0, 0}, {0, 1}, {1, 2}}, {{2, kColor}, {3, kSize}},
                     {{2, kTier}});
}

TEST(AttributeBlockTest, NodeLayout) {
  auto g = MakeTinyBlockGraph();
  EXPECT_EQ(g.num_nodes(), 2u + 3u + 2u + 3u + 2u);
  EXPECT_EQ(g.UserNode(1), 1u);
  EXPECT_EQ(g.ItemNode(2), 4u);
  EXPECT_EQ(g.ItemAttributeNode(0, 0), 5u);  // color block.
  EXPECT_EQ(g.ItemAttributeNode(1, 0), 7u);  // size block.
  EXPECT_EQ(g.UserAttributeNode(0, 1), 11u);  // tier block.
}

TEST(AttributeBlockTest, EdgesFollowAttributeValues) {
  auto g = MakeTinyBlockGraph();
  const auto& adj = g.adjacency();
  // Item 0 has color 0, size 2, one user, self → 4 entries.
  EXPECT_EQ(adj.RowNnz(g.ItemNode(0)), 4u);
  EXPECT_GT(adj.At(g.ItemNode(0), g.ItemAttributeNode(0, 0)), 0.0f);
  EXPECT_GT(adj.At(g.ItemNode(0), g.ItemAttributeNode(1, 2)), 0.0f);
  EXPECT_EQ(adj.At(g.ItemNode(0), g.ItemAttributeNode(0, 1)), 0.0f);
  // User 0 has tier 1, two items, self → 4 entries.
  EXPECT_EQ(adj.RowNnz(g.UserNode(0)), 4u);
  EXPECT_GT(adj.At(g.UserNode(0), g.UserAttributeNode(0, 1)), 0.0f);
}

TEST(AttributeBlockTest, RowsSumToOne) {
  auto g = MakeTinyBlockGraph();
  const auto& adj = g.adjacency();
  for (size_t r = 0; r < adj.rows(); ++r) {
    float sum = 0.0f;
    for (uint32_t k = adj.row_ptr()[r]; k < adj.row_ptr()[r + 1]; ++k) {
      sum += adj.values()[k];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6f) << "row " << r;
  }
}

TEST(AttributeBlockTest, NoAttributesIsBipartite) {
  HeteroGraph g(2, 2, {{0, 0}, {1, 1}}, {}, {});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.adjacency().RowNnz(g.UserNode(0)), 2u);  // Item + self.
}

// ------------------------- Adjacency format pin -------------------------

// FNV-1a 64 over the bytes of `v`, continuing from `h`.
template <typename T>
uint64_t Fnv1a64(const std::vector<T>& v, uint64_t h) {
  for (const T& x : v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &x, sizeof(T));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// One hash over row_ptr, col_idx and values of Â, then of Âᵀ.
uint64_t AdjacencyFnv(const la::CsrMatrix& adj, const la::CsrMatrix& adj_t) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const la::CsrMatrix* m : {&adj, &adj_t}) {
    h = Fnv1a64(m->row_ptr(), h);
    h = Fnv1a64(m->col_idx(), h);
    h = Fnv1a64(m->values(), h);
  }
  return h;
}

// A seeded world with repeated interactions, hub attribute values and
// users over any small fan-in cap.
struct PinWorld {
  static constexpr size_t kUsers = 120, kItems = 90, kCategories = 8,
                          kPriceLevels = 5, kTiers = 3;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  std::vector<uint32_t> category, price, tier;

  PinWorld() {
    Rng rng(2020);
    for (int e = 0; e < 900; ++e) {
      pairs.emplace_back(static_cast<uint32_t>(rng.NextBelow(kUsers)),
                         static_cast<uint32_t>(rng.NextBelow(kItems)));
    }
    for (size_t i = 0; i < kItems; ++i) {
      category.push_back(static_cast<uint32_t>(rng.NextBelow(kCategories)));
      price.push_back(static_cast<uint32_t>(rng.NextBelow(kPriceLevels)));
    }
    for (size_t u = 0; u < kUsers; ++u) {
      tier.push_back(static_cast<uint32_t>(rng.NextBelow(kTiers)));
    }
  }

  // The {category, price} paper layout with `options`.
  uint64_t Paper(const HeteroGraphOptions& options) const {
    HeteroGraph g(kUsers, kItems, kCategories, kPriceLevels, pairs, category,
                  price, options);
    return AdjacencyFnv(g.adjacency(), g.adjacency_transposed());
  }

  // The paper layout as Pup::Fit builds it for `config`.
  uint64_t Paper(const core::PupConfig& config) const {
    HeteroGraphOptions options;
    options.use_category_nodes = config.use_category;
    options.use_price_nodes = config.use_price;
    options.add_self_loops = config.self_loops;
    options.max_neighbors = config.max_neighbors;
    options.neighbor_seed = config.train.seed;
    return Paper(options);
  }
};

// Every kind of normalized adjacency the models train on, pinned byte for
// byte: the paper layout under each PupConfig preset's toggles, without
// self-loops and with a fan-in cap; the user-item layout with and without
// self-loops and with a cap; and a layout with two item blocks and a user
// block. A change to how graphs are built must leave every Â and Âᵀ
// identical, so trained models and checkpoints do not move.
TEST(GraphFormatTest, AdjacencyBytesAreStable) {
  const PinWorld w;
  EXPECT_EQ(w.Paper(core::PupConfig::Full()), 0x704f96b7b25163b5ull);
  EXPECT_EQ(w.Paper(core::PupConfig::Minus()), 0x746def11ba606629ull);
  EXPECT_EQ(w.Paper(core::PupConfig::WithoutCategoryAndPrice()),
            0x79da4ee4ce2dc6e9ull);
  EXPECT_EQ(w.Paper(core::PupConfig::WithCategoryOnly()),
            0x9ea73dde99f1d7d1ull);
  EXPECT_EQ(w.Paper(core::PupConfig::WithPriceOnly()), 0x746def11ba606629ull);

  HeteroGraphOptions no_loops;
  no_loops.add_self_loops = false;
  EXPECT_EQ(w.Paper(no_loops), 0x5c84b9e2a43b82a9ull);
  HeteroGraphOptions capped;
  capped.max_neighbors = 3;
  capped.neighbor_seed = 11;
  EXPECT_EQ(w.Paper(capped), 0x53498437cfb7c136ull);

  const HeteroGraph bipartite(PinWorld::kUsers, PinWorld::kItems, w.pairs, {},
                              {});
  EXPECT_EQ(
      AdjacencyFnv(bipartite.adjacency(), bipartite.adjacency_transposed()),
      0x3000c2c841e71f29ull);
  const HeteroGraph bipartite_no_loops(PinWorld::kUsers, PinWorld::kItems,
                                       w.pairs, {}, {},
                                       {.add_self_loops = false});
  EXPECT_EQ(AdjacencyFnv(bipartite_no_loops.adjacency(),
                         bipartite_no_loops.adjacency_transposed()),
            0x8b153271c72f3c49ull);
  const HeteroGraph bipartite_capped(
      PinWorld::kUsers, PinWorld::kItems, w.pairs, {}, {},
      {.max_neighbors = 3, .neighbor_seed = 11});
  EXPECT_EQ(AdjacencyFnv(bipartite_capped.adjacency(),
                         bipartite_capped.adjacency_transposed()),
            0x67fd2044f7281857ull);

  const HeteroGraph blocks(
      PinWorld::kUsers, PinWorld::kItems, w.pairs,
      {{PinWorld::kCategories, w.category}, {PinWorld::kPriceLevels, w.price}},
      {{PinWorld::kTiers, w.tier}});
  EXPECT_EQ(AdjacencyFnv(blocks.adjacency(), blocks.adjacency_transposed()),
            0x87c876781c925141ull);
}

}  // namespace
}  // namespace pup::graph
