#include "core/pup_model.h"

#include <algorithm>

#include "autograd/ops.h"
#include "common/check.h"

namespace pup::core {

PupConfig PupConfig::Full() {
  PupConfig c;
  c.embedding_dim = 64;
  c.category_branch_dim = 8;
  c.name = "PUP";
  return c;
}

PupConfig PupConfig::Minus() {
  PupConfig c;
  c.use_category = false;
  c.two_branch = false;
  c.name = "PUP-";
  return c;
}

PupConfig PupConfig::WithoutCategoryAndPrice() {
  PupConfig c;
  c.use_price = false;
  c.use_category = false;
  c.two_branch = false;
  c.name = "PUP w/o c,p";
  return c;
}

PupConfig PupConfig::WithCategoryOnly() {
  PupConfig c;
  c.use_price = false;
  c.two_branch = false;
  c.name = "PUP w/ c";
  return c;
}

PupConfig PupConfig::WithPriceOnly() {
  PupConfig c;
  c.use_category = false;
  c.two_branch = false;
  c.name = "PUP w/ p";
  return c;
}

Pup::Pup(PupConfig config) : config_(std::move(config)) {
  PUP_CHECK_GT(config_.embedding_dim, 0u);
  PUP_CHECK_GT(config_.num_layers, 0);
  if (config_.two_branch) {
    PUP_CHECK_MSG(config_.use_price && config_.use_category,
                  "the category branch needs price and category nodes");
    PUP_CHECK_LT(config_.category_branch_dim, config_.embedding_dim);
    PUP_CHECK_GT(config_.category_branch_dim, 0u);
  }
}

std::string Pup::name() const {
  if (config_.name.has_value()) return *config_.name;
  return config_.two_branch ? "PUP" : "PUP(single)";
}

void Pup::Fit(const data::Dataset& dataset,
              const std::vector<data::Interaction>& train) {
  if (config_.use_price) {
    PUP_CHECK_MSG(!dataset.item_price_level.empty(),
                  "PUP needs quantized price levels");
  }
  Rng rng(config_.train.seed);
  dropout_rng_ = rng.Fork();

  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(train.size());
  for (const data::Interaction& x : train) pairs.emplace_back(x.user, x.item);

  graph::HeteroGraphOptions gopts;
  gopts.use_category_nodes = config_.use_category;
  gopts.use_price_nodes = config_.use_price;
  gopts.add_self_loops = config_.self_loops;
  gopts.max_neighbors = config_.max_neighbors;
  gopts.neighbor_seed = config_.train.seed;
  graph_ = std::make_unique<graph::HeteroGraph>(
      dataset.num_users, dataset.num_items, dataset.num_categories,
      dataset.num_price_levels, pairs, dataset.item_category,
      dataset.item_price_level.empty()
          ? std::vector<uint32_t>(dataset.num_items, 0)
          : dataset.item_price_level,
      gopts);
  item_category_nodes_.resize(config_.use_category ? dataset.num_items : 0);
  item_price_nodes_.resize(config_.use_price ? dataset.num_items : 0);
  for (uint32_t i = 0; i < item_category_nodes_.size(); ++i) {
    item_category_nodes_[i] = graph_->CategoryNode(dataset.item_category[i]);
  }
  for (uint32_t i = 0; i < item_price_nodes_.size(); ++i) {
    item_price_nodes_[i] = graph_->PriceNode(dataset.item_price_level[i]);
  }

  global_.dim = config_.two_branch
                    ? config_.embedding_dim - config_.category_branch_dim
                    : config_.embedding_dim;
  global_.emb = ag::Param(la::Matrix::Gaussian(
      graph_->num_nodes(), global_.dim, config_.init_stddev, &rng));
  if (config_.two_branch) {
    category_.dim = config_.category_branch_dim;
    category_.emb = ag::Param(la::Matrix::Gaussian(
        graph_->num_nodes(), category_.dim, config_.init_stddev, &rng));
  }

  train::TrainBpr(this, dataset, train, config_.train);

  // --- Inference cache: fold eq. (3) into user/item vectors + bias. ---
  //   s(u,i) = f_uᵍ·(f_iᵍ + f_pᵍ) + f_iᵍ·f_pᵍ
  //          + α [ f_uᶜ·(f_cᶜ + f_pᶜ) + f_cᶜ·f_pᶜ ]
  // (branch superscripts: each branch has independent embeddings).
  ag::Tensor fg = Propagate(global_, /*training=*/false);
  const la::Matrix& g = fg->value;
  const bool two = config_.two_branch;
  la::Matrix fc_matrix;
  if (two) {
    fc_matrix = Propagate(category_, /*training=*/false)->value;
  }
  if (config_.use_price) {
    global_price_emb_ = la::Matrix(dataset.num_price_levels, global_.dim);
    for (uint32_t p = 0; p < dataset.num_price_levels; ++p) {
      const float* src = g.Row(graph_->PriceNode(p));
      std::copy(src, src + global_.dim, global_price_emb_.Row(p));
    }
  }
  const size_t d_total = global_.dim + (two ? category_.dim : 0);
  la::Matrix user_vecs(dataset.num_users, d_total);
  la::Matrix item_vecs(dataset.num_items, d_total);
  std::vector<float> item_bias(dataset.num_items, 0.0f);

  for (uint32_t u = 0; u < dataset.num_users; ++u) {
    const float* src = g.Row(graph_->UserNode(u));
    std::copy(src, src + global_.dim, user_vecs.Row(u));
    if (two) {
      const float* srcc = fc_matrix.Row(graph_->UserNode(u));
      std::copy(srcc, srcc + category_.dim, user_vecs.Row(u) + global_.dim);
    }
  }
  for (uint32_t i = 0; i < dataset.num_items; ++i) {
    float* dst = item_vecs.Row(i);
    const float* fi = g.Row(graph_->ItemNode(i));
    const float* fp =
        config_.use_price ? g.Row(item_price_nodes_[i]) : nullptr;
    const float* fc =
        config_.use_category ? g.Row(item_category_nodes_[i]) : nullptr;
    float bias = 0.0f;
    for (size_t j = 0; j < global_.dim; ++j) {
      float v = fi[j];
      if (fp != nullptr) {
        v += fp[j];
        bias += fi[j] * fp[j];
      } else if (fc != nullptr && !two) {
        // w/ c ablation: u·i + u·c + i·c.
        v += fc[j];
        bias += fi[j] * fc[j];
      }
      dst[j] = v;
    }
    if (two) {
      const float* cc = fc_matrix.Row(item_category_nodes_[i]);
      const float* cp = fc_matrix.Row(item_price_nodes_[i]);
      for (size_t j = 0; j < category_.dim; ++j) {
        dst[global_.dim + j] = config_.alpha * (cc[j] + cp[j]);
        bias += config_.alpha * cc[j] * cp[j];
      }
    }
    item_bias[i] = bias;
  }
  scorer_ = models::DotScorer(std::move(user_vecs), std::move(item_vecs),
                              std::move(item_bias));
}

ag::Tensor Pup::Propagate(const Branch& branch, bool training) {
  std::vector<ag::Tensor> layers;
  ag::Tensor f = branch.emb;
  for (int l = 0; l < config_.num_layers; ++l) {
    f = ag::Tanh(ag::Spmm(&graph_->adjacency(),
                          &graph_->adjacency_transposed(), f));
    layers.push_back(f);  // NOLINT(pup-hot-transitive): bounded by num_layers.
  }
  ag::Tensor out = layers.back();
  if (config_.layer_combine == PupConfig::LayerCombine::kMean &&
      layers.size() > 1) {
    out = layers[0];
    for (size_t l = 1; l < layers.size(); ++l) out = ag::Add(out, layers[l]);
    out = ag::Scale(out, 1.0f / static_cast<float>(layers.size()));
  }
  return ag::Dropout(out, config_.dropout, &dropout_rng_, training);
}

ag::Tensor Pup::DecodeGlobal(const ag::Tensor& f,
                             const std::vector<uint32_t>& user_nodes,
                             const std::vector<uint32_t>& item_nodes,
                             const std::vector<uint32_t>& cat_nodes,
                             const std::vector<uint32_t>& price_nodes) {
  ag::Tensor fu = ag::Gather(f, user_nodes);
  ag::Tensor fi = ag::Gather(f, item_nodes);
  ag::Tensor s = ag::RowDot(fu, fi);
  if (config_.use_price) {
    ag::Tensor fp = ag::Gather(f, price_nodes);
    s = ag::Add(s, ag::Add(ag::RowDot(fu, fp), ag::RowDot(fi, fp)));
  } else if (config_.use_category && !config_.two_branch) {
    ag::Tensor fc = ag::Gather(f, cat_nodes);
    s = ag::Add(s, ag::Add(ag::RowDot(fu, fc), ag::RowDot(fi, fc)));
  }
  return s;
}

ag::Tensor Pup::DecodeCategory(const ag::Tensor& f,
                               const std::vector<uint32_t>& user_nodes,
                               const std::vector<uint32_t>& cat_nodes,
                               const std::vector<uint32_t>& price_nodes) {
  ag::Tensor fu = ag::Gather(f, user_nodes);
  ag::Tensor fc = ag::Gather(f, cat_nodes);
  ag::Tensor fp = ag::Gather(f, price_nodes);
  return ag::Add(ag::RowDot(fu, fc),
                 ag::Add(ag::RowDot(fu, fp), ag::RowDot(fc, fp)));
}

void Pup::ScoreItems(uint32_t user, std::vector<float>* out) const {
  scorer_.ScoreItems(user, out);
}

train::TrainableState Pup::State() {
  train::TrainableState state{.key = "pup",
                              .tensors = {{"global_emb", global_.emb}},
                              .dropout_rng = &dropout_rng_};
  if (config_.two_branch) {
    state.tensors.emplace_back("category_emb", category_.emb);
  }
  return state;
}

train::BprTrainable::BatchGraph Pup::ForwardBatch(
    const std::vector<uint32_t>& users, const std::vector<uint32_t>& pos_items,
    const std::vector<uint32_t>& neg_items, bool training) {
  const size_t b = users.size();
  // NOLINTNEXTLINE(pup-hot-transitive): member scratch sized to the batch; capacity is retained across steps.
  user_nodes_.resize(b);
  pos_nodes_.resize(b);  // NOLINT(pup-hot-transitive): see above.
  neg_nodes_.resize(b);  // NOLINT(pup-hot-transitive): see above.
  pos_cats_.resize(b);  // NOLINT(pup-hot-transitive): see above.
  neg_cats_.resize(b);  // NOLINT(pup-hot-transitive): see above.
  pos_prices_.resize(b);  // NOLINT(pup-hot-transitive): see above.
  neg_prices_.resize(b);  // NOLINT(pup-hot-transitive): see above.
  for (size_t k = 0; k < b; ++k) {
    user_nodes_[k] = graph_->UserNode(users[k]);
    pos_nodes_[k] = graph_->ItemNode(pos_items[k]);
    neg_nodes_[k] = graph_->ItemNode(neg_items[k]);
    if (config_.use_category) {
      pos_cats_[k] = item_category_nodes_[pos_items[k]];
      neg_cats_[k] = item_category_nodes_[neg_items[k]];
    }
    if (config_.use_price) {
      pos_prices_[k] = item_price_nodes_[pos_items[k]];
      neg_prices_[k] = item_price_nodes_[neg_items[k]];
    }
  }

  ag::Tensor fg = Propagate(global_, training);
  ag::Tensor pos = DecodeGlobal(fg, user_nodes_, pos_nodes_, pos_cats_,
                                pos_prices_);
  ag::Tensor neg = DecodeGlobal(fg, user_nodes_, neg_nodes_, neg_cats_,
                                neg_prices_);
  if (config_.two_branch) {
    ag::Tensor fc = Propagate(category_, training);
    pos = ag::Add(pos, ag::Scale(DecodeCategory(fc, user_nodes_, pos_cats_,
                                                pos_prices_),
                                 config_.alpha));
    neg = ag::Add(neg, ag::Scale(DecodeCategory(fc, user_nodes_, neg_cats_,
                                                neg_prices_),
                                 config_.alpha));
  }

  BatchGraph batch;
  batch.pos_scores = pos;
  batch.neg_scores = neg;
  batch.l2_terms = {ag::Gather(global_.emb, user_nodes_),
                    ag::Gather(global_.emb, pos_nodes_),
                    ag::Gather(global_.emb, neg_nodes_)};
  if (config_.two_branch) {
    batch.l2_terms.push_back(ag::Gather(category_.emb, user_nodes_));  // NOLINT(pup-hot-transitive): <= #fields terms.
    batch.l2_terms.push_back(ag::Gather(category_.emb, pos_cats_));  // NOLINT(pup-hot-transitive): <= #fields terms.
    batch.l2_terms.push_back(ag::Gather(category_.emb, pos_prices_));  // NOLINT(pup-hot-transitive): <= #fields terms.
  }
  return batch;
}

}  // namespace pup::core
