#include "serve/index.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "la/kernels.h"
#include "obs/registry.h"

namespace pup::serve {
namespace {

// Section names inside the index checkpoint. The "serve/" prefix keeps
// them disjoint from the "model/" namespace the trainer writes a model's
// TrainableState into.
constexpr char kSecFormat[] = "serve/format";
constexpr char kSecModel[] = "serve/model";
constexpr char kSecUsers[] = "serve/users";
constexpr char kSecItems[] = "serve/items";
constexpr char kSecBias[] = "serve/bias";
constexpr char kSecPrior[] = "serve/prior";
// Quantized-table sections, present only in v2 files (docs/quantization.md).
constexpr char kSecQuantMode[] = "serve/quant/mode";
constexpr char kSecQuantScales[] = "serve/quant/scales";
constexpr char kSecQuantMins[] = "serve/quant/mins";
constexpr char kSecQuantCodes[] = "serve/quant/codes";

// v1: f32-only index. v2: adds the serve/quant/* sections. Saves use the
// lowest version that can represent the index, so an unquantized index
// written by this build still loads in a v1-only binary.
constexpr uint64_t kIndexFormatVersion = 1;
constexpr uint64_t kIndexFormatVersionQuant = 2;

// Cold-start fallback scores: per-item popularity weighted by the item's
// price level share. Counts come from the full interaction list, so the
// prior is a pure deterministic function of the dataset (the floats are
// computed in double and rounded once).
std::vector<float> BuildPrior(const data::Dataset& dataset) {
  const size_t n = dataset.num_items;
  std::vector<uint64_t> count(n, 0);
  for (const data::Interaction& it : dataset.interactions) ++count[it.item];
  const bool has_levels = dataset.item_price_level.size() == n &&
                          dataset.num_price_levels > 0;
  if (!has_levels) {
    // Degrading to popularity-only silently hid quantization wiring bugs
    // (a mis-sized level vector produced a valid-looking but price-blind
    // prior); make the fallback observable.
    PUP_OBS_COUNT("serve/prior_level_fallback", 1);
    PUP_LOG_WARNING << "BuildPrior: item_price_level has "
                    << dataset.item_price_level.size() << " entries for " << n
                    << " items (num_price_levels=" << dataset.num_price_levels
                    << "); cold-start prior falls back to popularity only";
  }
  std::vector<uint64_t> level_count(has_levels ? dataset.num_price_levels : 1,
                                    0);
  for (size_t i = 0; i < n; ++i) {
    level_count[has_levels ? dataset.item_price_level[i] : 0] += count[i];
  }
  const double total =
      static_cast<double>(std::max<size_t>(dataset.interactions.size(), 1));
  std::vector<float> prior(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t lc = level_count[has_levels ? dataset.item_price_level[i]
                                               : 0];
    const double share = static_cast<double>(lc) / total;
    prior[i] = static_cast<float>(
        std::log1p(static_cast<double>(count[i])) * (1.0 + share));
  }
  return prior;
}

}  // namespace

ServingIndex ServingIndex::Freeze(const models::DotScorer& scorer,
                                  const data::Dataset& dataset,
                                  const std::string& model_name) {
  PUP_CHECK_MSG(scorer.initialized(), "cannot freeze an unfit scorer");
  PUP_CHECK_EQ(scorer.user_vecs().rows(), dataset.num_users);
  PUP_CHECK_EQ(scorer.item_vecs().rows(), dataset.num_items);
  ServingIndex index;
  index.user_vecs_ = scorer.user_vecs();
  index.item_vecs_ = scorer.item_vecs();
  index.item_bias_ = scorer.item_bias();
  index.prior_ = BuildPrior(dataset);
  index.model_name_ = model_name;
  index.fingerprint_ = ckpt::DatasetFingerprint::Of(dataset);
  return index;
}

Status ServingIndex::Save(const std::string& path) const {
  // The writer borrows every matrix until WriteFile, so the column
  // vectors built here live in this scope, not in the branch below.
  ckpt::Writer writer(fingerprint_);
  writer.AddU64(kSecFormat, quantized() ? kIndexFormatVersionQuant
                                        : kIndexFormatVersion);
  writer.AddString(kSecModel, model_name_);
  writer.AddMatrix(kSecUsers, user_vecs_);
  writer.AddMatrix(kSecItems, item_vecs_);
  la::Matrix bias(item_bias_.size(), 1);
  for (size_t i = 0; i < item_bias_.size(); ++i) bias(i, 0) = item_bias_[i];
  writer.AddMatrix(kSecBias, bias);
  la::Matrix prior(prior_.size(), 1);
  for (size_t i = 0; i < prior_.size(); ++i) prior(i, 0) = prior_[i];
  writer.AddMatrix(kSecPrior, prior);
  la::Matrix scales, mins;
  if (quantized()) {
    writer.AddU64(kSecQuantMode, static_cast<uint64_t>(quant_mode_));
    scales = la::Matrix(quant_items_.rows(), 1);
    mins = la::Matrix(quant_items_.rows(), 1);
    for (size_t i = 0; i < quant_items_.rows(); ++i) {
      scales(i, 0) = quant_items_.scales()[i];
      mins(i, 0) = quant_items_.mins()[i];
    }
    writer.AddMatrix(kSecQuantScales, scales);
    writer.AddMatrix(kSecQuantMins, mins);
    writer.AddBytes(kSecQuantCodes,
                    std::string(reinterpret_cast<const char*>(
                                    quant_items_.codes()),
                                quant_items_.codes_size()));
  }
  return writer.WriteFile(path);
}

Result<ServingIndex> ServingIndex::Load(const std::string& path) {
  // Reader::Open already rejects truncation, bit flips, and foreign files
  // (every CRC is checked up front); the shape validation below runs on
  // local values, so no partially built index can escape on any path.
  PUP_ASSIGN_OR_RETURN(ckpt::Reader reader, ckpt::Reader::Open(path));
  PUP_ASSIGN_OR_RETURN(uint64_t format, reader.GetU64(kSecFormat));
  if (format != kIndexFormatVersion && format != kIndexFormatVersionQuant) {
    return Status::InvalidArgument("unsupported serving index format");
  }
  PUP_ASSIGN_OR_RETURN(std::string model_name, reader.GetString(kSecModel));
  PUP_ASSIGN_OR_RETURN(la::Matrix users, reader.GetMatrix(kSecUsers));
  PUP_ASSIGN_OR_RETURN(la::Matrix items, reader.GetMatrix(kSecItems));
  PUP_ASSIGN_OR_RETURN(la::Matrix bias, reader.GetMatrix(kSecBias));
  PUP_ASSIGN_OR_RETURN(la::Matrix prior, reader.GetMatrix(kSecPrior));
  if (users.cols() != items.cols()) {
    return Status::InvalidArgument("serving index user/item dim mismatch");
  }
  if (bias.rows() != 0 &&
      (bias.rows() != items.rows() || bias.cols() != 1)) {
    return Status::InvalidArgument("serving index bias shape mismatch");
  }
  if (prior.rows() != items.rows() || (items.rows() > 0 && prior.cols() != 1)) {
    return Status::InvalidArgument("serving index prior shape mismatch");
  }
  ServingIndex index;
  index.user_vecs_ = std::move(users);
  index.item_vecs_ = std::move(items);
  index.item_bias_.resize(bias.rows());
  for (size_t i = 0; i < index.item_bias_.size(); ++i) {
    index.item_bias_[i] = bias(i, 0);
  }
  index.prior_.resize(prior.rows());
  for (size_t i = 0; i < index.prior_.size(); ++i) {
    index.prior_[i] = prior(i, 0);
  }
  index.model_name_ = std::move(model_name);
  index.fingerprint_ = reader.fingerprint();
  if (format == kIndexFormatVersionQuant) {
    PUP_ASSIGN_OR_RETURN(uint64_t mode_word, reader.GetU64(kSecQuantMode));
    if (mode_word != static_cast<uint64_t>(la::QuantMode::kInt8) &&
        mode_word != static_cast<uint64_t>(la::QuantMode::kInt4)) {
      return Status::InvalidArgument("serving index quant mode out of range");
    }
    const auto mode = static_cast<la::QuantMode>(mode_word);
    PUP_ASSIGN_OR_RETURN(la::Matrix scales, reader.GetMatrix(kSecQuantScales));
    PUP_ASSIGN_OR_RETURN(la::Matrix mins, reader.GetMatrix(kSecQuantMins));
    PUP_ASSIGN_OR_RETURN(std::string codes, reader.GetString(kSecQuantCodes));
    const size_t n = index.item_vecs_.rows();
    if (scales.rows() != n || mins.rows() != n ||
        (n > 0 && (scales.cols() != 1 || mins.cols() != 1))) {
      return Status::InvalidArgument(
          "serving index quant row-parameter shape mismatch");
    }
    std::vector<float> scale_vec(n);
    std::vector<float> min_vec(n);
    for (size_t i = 0; i < n; ++i) {
      scale_vec[i] = scales(i, 0);
      min_vec[i] = mins(i, 0);
    }
    // FromParts re-validates every layout invariant (sizes, pad bytes,
    // odd-width tail nibbles, finite row parameters), so a corrupted or
    // hand-edited quant payload is rejected here, never served.
    PUP_ASSIGN_OR_RETURN(
        index.quant_items_,
        la::QuantizedTable::FromParts(mode, n, index.item_vecs_.cols(),
                                      std::move(scale_vec), std::move(min_vec),
                                      std::move(codes)));
    index.quant_mode_ = mode;
  }
  return index;
}

Result<ServingIndex> ServingIndex::WithQuant(la::QuantMode mode) const {
  ServingIndex copy = *this;
  if (mode == la::QuantMode::kOff) {
    copy.quant_items_ = la::QuantizedTable();
    copy.quant_mode_ = la::QuantMode::kOff;
    return copy;
  }
  PUP_ASSIGN_OR_RETURN(copy.quant_items_,
                       la::QuantizedTable::Quantize(item_vecs_, mode));
  copy.quant_mode_ = mode;
  return copy;
}

void IndexScorer::ScoreItems(uint32_t user, std::vector<float>* out) const {
  PUP_CHECK(user < index_->num_users());
  out->resize(index_->num_items());
  la::ScoreItemsForUser(index_->item_vecs(), index_->user_vecs().Row(user),
                        index_->bias(), out->data());
}

}  // namespace pup::serve
