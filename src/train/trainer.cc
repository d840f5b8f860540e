#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "ckpt/checkpoint.h"
#include "ckpt/optimizer_state.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/registry.h"

namespace pup::train {
namespace {

namespace fs = std::filesystem;

// Snapshot file name for a run that has completed `epochs` epochs;
// zero-padded so lexicographic order is epoch order.
std::string CheckpointFileName(int epochs) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%06d.pupc", epochs);
  return buf;
}

bool IsCheckpointFile(const fs::path& p) {
  const std::string name = p.filename().string();
  return name.starts_with("ckpt-") && name.ends_with(".pupc");
}

// Resume candidates, best first: the explicit file (if PATH is a file),
// then every sibling snapshot newest-first — the last-good fallback chain.
std::vector<std::string> ResumeCandidates(const std::string& resume_from) {
  std::vector<std::string> candidates;
  std::error_code ec;
  fs::path dir;
  if (fs::is_directory(resume_from, ec)) {
    dir = resume_from;
  } else {
    candidates.push_back(resume_from);
    dir = fs::path(resume_from).parent_path();
  }
  std::vector<std::string> siblings;
  if (!dir.empty() && fs::is_directory(dir, ec)) {
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.is_regular_file(ec) && IsCheckpointFile(entry.path()) &&
          entry.path().string() != resume_from) {
        siblings.push_back(entry.path().string());
      }
    }
  }
  std::sort(siblings.rbegin(), siblings.rend());
  candidates.insert(candidates.end(), siblings.begin(), siblings.end());
  return candidates;
}

// Checkpoint section of a TrainableState tensor named `name`.
std::string ModelSection(const std::string& name) { return "model/" + name; }

// Writes one training snapshot; `epochs` epochs are complete and `lr` is
// the rate those epochs ended on.
Status SaveTrainerCheckpoint(const ckpt::DatasetFingerprint& fingerprint,
                             BprTrainable* model,
                             const ag::Optimizer& optimizer,
                             const data::NegativeSampler& sampler, int epochs,
                             float lr, const std::string& path) {
  const TrainableState state = model->State();
  ckpt::Writer writer(fingerprint);
  writer.AddString("meta/model_key", state.key);
  writer.AddU64("meta/epochs_completed", static_cast<uint64_t>(epochs));
  writer.AddF32("trainer/lr", lr);
  writer.AddRng("sampler/rng", sampler.rng_state());
  // Weighted samplers stamp their strategy so a resume with a different
  // --neg-sampling/--neg-alpha is rejected instead of silently diverging.
  // Uniform runs write no section, keeping their files byte-identical to
  // checkpoints from before weighted sampling existed.
  if (sampler.checkpoint_tag() != 0) {
    writer.AddU64("sampler/tag", sampler.checkpoint_tag());
  }
  PUP_RETURN_NOT_OK(ckpt::SaveOptimizerState(optimizer, &writer));
  for (const auto& [name, tensor] : state.tensors) {
    writer.AddMatrix(ModelSection(name), tensor->value);
  }
  if (state.dropout_rng != nullptr) {
    writer.AddRng("model/dropout_rng", state.dropout_rng->SaveState());
  }
  return writer.WriteFile(path);
}

// One minibatch: forward, L2 penalty, numeric sentinels, backward,
// parameter update. Returns the batch loss.
// PUP_HOT: inside the trainer's tape arena, with capacities warmed, this
// performs no heap allocation in steady state; pup_lint enforces the
// contract.
float RunBatchStep(BprTrainable* model, const std::vector<uint32_t>& users,
                   const std::vector<uint32_t>& pos,
                   const std::vector<uint32_t>& neg,
                   const TrainOptions& options, ag::Adam* optimizer,
                   ag::NumericGuard* guard) {
  PUP_OBS_SCOPED_TIMER("train/batch_step");
  BprTrainable::BatchLossGraph graph =
      model->ForwardBatchLoss(users, pos, neg, /*training=*/true);
  ag::Tensor loss = std::move(graph.loss);
  if (options.l2_reg > 0.0f && !graph.l2_terms.empty()) {
    loss = ag::FusedL2Penalty(
        loss, graph.l2_terms,
        options.l2_reg / static_cast<float>(users.size()));
  }
  // The 1x1 loss is validated every step (negligible cost); the op-level
  // tape scans run only under --check-numerics.
  loss->value.AssertFinite("batch loss");
  if (options.check_numerics) {
    const ag::NumericFinding finding = guard->CheckForward(loss);
    PUP_CHECK_MSG(!finding.found, finding.Describe().c_str());
  }
  optimizer->ZeroGrad();
  ag::Backward(loss);
  if (options.check_numerics) {
    const ag::NumericFinding finding = guard->CheckBackward(loss);
    PUP_CHECK_MSG(!finding.found, finding.Describe().c_str());
  }
  optimizer->Step();
  return loss->value(0, 0);
}

}  // namespace

Result<ResumePoint> TryResumeCheckpoint(
    const std::string& path, const ckpt::DatasetFingerprint& fingerprint,
    BprTrainable* model, ag::Optimizer* optimizer,
    data::NegativeSampler* sampler, int total_epochs) {
  PUP_OBS_COUNT("train/resume_attempts", 1);
  PUP_OBS_SCOPED_TIMER("train/resume");
  // Phase 1 — stage and validate. Everything below is pure reads into
  // locals; any failure returns before live state is touched.
  const TrainableState state = model->State();
  PUP_ASSIGN_OR_RETURN(ckpt::Reader reader, ckpt::Reader::Open(path));
  PUP_RETURN_NOT_OK(reader.CheckFingerprint(fingerprint));
  PUP_ASSIGN_OR_RETURN(std::string stored_key,
                       reader.GetString("meta/model_key"));
  if (stored_key != state.key) {
    return Status::FailedPrecondition("checkpoint holds a '" + stored_key +
                                      "' model, not '" + state.key + "'");
  }
  ResumePoint point;
  PUP_ASSIGN_OR_RETURN(uint64_t epochs,
                       reader.GetU64("meta/epochs_completed"));
  if (epochs > static_cast<uint64_t>(total_epochs)) {
    return Status::OutOfRange("checkpoint is " + std::to_string(epochs) +
                              " epochs in, past this run's " +
                              std::to_string(total_epochs));
  }
  point.epochs_completed = static_cast<int>(epochs);
  PUP_ASSIGN_OR_RETURN(point.lr, reader.GetF32("trainer/lr"));
  PUP_ASSIGN_OR_RETURN(RngState sampler_rng, reader.GetRng("sampler/rng"));
  uint64_t stored_tag = 0;
  if (reader.Has("sampler/tag")) {
    PUP_ASSIGN_OR_RETURN(stored_tag, reader.GetU64("sampler/tag"));
  }
  if (stored_tag != sampler->checkpoint_tag()) {
    return Status::FailedPrecondition(
        "checkpoint negative-sampling strategy (tag " +
        std::to_string(stored_tag) + ") does not match this run's (tag " +
        std::to_string(sampler->checkpoint_tag()) +
        "); resume with the same --neg-sampling/--neg-alpha");
  }
  // The optimizer sections are staged and pre-validated here, NOT loaded:
  // they are the last sections in the file, and committing the model
  // first would tear the restore when they turn out corrupt — the model
  // would keep the checkpoint weights while training "from scratch".
  PUP_ASSIGN_OR_RETURN(ag::OptimizerState optim_state,
                       ckpt::ReadOptimizerState(reader));
  PUP_RETURN_NOT_OK(optimizer->ValidateState(optim_state));
  std::vector<la::Matrix> staged_tensors;
  staged_tensors.reserve(state.tensors.size());
  for (const auto& [name, tensor] : state.tensors) {
    const std::string section = ModelSection(name);
    PUP_ASSIGN_OR_RETURN(la::Matrix m, reader.GetMatrix(section));
    if (!m.SameShape(tensor->value)) {
      return Status::FailedPrecondition(
          "section '" + section + "' is " + std::to_string(m.rows()) + "x" +
          std::to_string(m.cols()) + ", model expects " +
          std::to_string(tensor->value.rows()) + "x" +
          std::to_string(tensor->value.cols()));
    }
    staged_tensors.push_back(std::move(m));
  }
  RngState dropout_rng;
  if (state.dropout_rng != nullptr) {
    PUP_ASSIGN_OR_RETURN(dropout_rng, reader.GetRng("model/dropout_rng"));
  }

  // Phase 2 — commit. Everything was staged and validated above, so from
  // here on nothing can fail.
  for (size_t i = 0; i < staged_tensors.size(); ++i) {
    state.tensors[i].second->value = std::move(staged_tensors[i]);
  }
  if (state.dropout_rng != nullptr) {
    state.dropout_rng->RestoreState(dropout_rng);
  }
  Status optim_commit = optimizer->ImportState(optim_state);
  PUP_CHECK_MSG(optim_commit.ok(),
                "optimizer state failed to commit after validation");
  sampler->restore_rng_state(sampler_rng);
  return point;
}

void ApplyCheckNumericsFlag(const Flags& flags, TrainOptions* options) {
  options->check_numerics =
      flags.GetBool("check-numerics", options->check_numerics);
}

Status ApplyNegSamplingFlags(const Flags& flags, TrainOptions* options) {
  const std::string name = flags.GetString(
      "neg-sampling", data::NegSamplingName(options->neg_sampling));
  PUP_ASSIGN_OR_RETURN(options->neg_sampling,
                       data::NegSamplingFromString(name));
  options->neg_alpha = flags.GetDouble("neg-alpha", options->neg_alpha);
  return Status::OK();
}

Result<CheckpointOptions> CheckpointOptionsFromFlags(const Flags& flags) {
  CheckpointOptions options;
  options.directory = flags.GetString("ckpt-dir", "");
  options.resume_from = flags.GetString("resume", "");
  PUP_ASSIGN_OR_RETURN(options.save_every,
                       NonNegativeIntFlag<int>(flags, "save-every"));
  if (options.save_every > 0 && options.directory.empty()) {
    return Status::InvalidArgument("--save-every needs --ckpt-dir");
  }
  return options;
}

Result<size_t> MaxNeighborsFromFlags(const Flags& flags) {
  return NonNegativeIntFlag<size_t>(flags, "max-neighbors");
}

std::vector<ag::Tensor> BprTrainable::Parameters() {
  std::vector<ag::Tensor> params;
  for (auto& [name, tensor] : State().tensors) params.push_back(tensor);
  return params;
}

BprTrainable::BatchLossGraph BprTrainable::ForwardBatchLoss(
    const std::vector<uint32_t>& users, const std::vector<uint32_t>& pos_items,
    const std::vector<uint32_t>& neg_items, bool training) {
  BatchGraph batch = ForwardBatch(users, pos_items, neg_items, training);
  const bool row_dot = batch.user && batch.pos && batch.neg;
  const bool scores = batch.pos_scores && batch.neg_scores;
  const bool any_row_dot = batch.user || batch.pos || batch.neg;
  const bool any_scores = batch.pos_scores || batch.neg_scores;
  PUP_CHECK_MSG((row_dot && !any_scores) || (scores && !any_row_dot),
                "ForwardBatch must set exactly one of {user, pos, neg} and "
                "{pos_scores, neg_scores}");
  BatchLossGraph graph;
  graph.loss = row_dot
                   ? ag::RowDotSigmoidBpr(batch.user, batch.pos, batch.neg)
                   : ag::BprLoss(batch.pos_scores, batch.neg_scores);
  graph.l2_terms = std::move(batch.l2_terms);
  return graph;
}

std::vector<EpochStats> TrainBpr(BprTrainable* model,
                                 const data::Dataset& dataset,
                                 const std::vector<data::Interaction>& train,
                                 const TrainOptions& options,
                                 const EpochCallback& callback) {
  PUP_CHECK(model != nullptr);
  PUP_CHECK_GT(options.epochs, 0);
  PUP_CHECK_GT(options.batch_size, 0u);
  PUP_CHECK_MSG(!train.empty(), "training split is empty");

  std::unique_ptr<data::NegativeSampler> sampler = data::MakeNegativeSampler(
      dataset, train, options.seed, options.neg_sampling, options.neg_alpha);
  ag::Adam optimizer(model->Parameters(),
                     {.learning_rate = options.learning_rate});

  // Epochs (0-based) at which the learning rate is divided by 10.
  // Distinct fractions can floor to the same epoch on short runs (e.g.
  // {0.5, 0.55} of 10 epochs); each decay epoch must divide the rate
  // exactly once, so duplicates are dropped.
  std::vector<int> decay_epochs;
  for (double frac : options.lr_decay_at) {
    decay_epochs.push_back(
        static_cast<int>(std::floor(options.epochs * frac)));
  }
  std::sort(decay_epochs.begin(), decay_epochs.end());
  decay_epochs.erase(std::unique(decay_epochs.begin(), decay_epochs.end()),
                     decay_epochs.end());

  std::vector<EpochStats> history;
  history.reserve(options.epochs);
  float lr = options.learning_rate;

  const CheckpointOptions& ck = options.checkpoint;
  const bool saving = !ck.directory.empty() && ck.save_every > 0;
  ckpt::DatasetFingerprint fingerprint;
  if (saving || !ck.resume_from.empty()) {
    fingerprint = ckpt::DatasetFingerprint::Of(dataset);
  }

  int start_epoch = 0;
  if (!ck.resume_from.empty()) {
    for (const std::string& candidate : ResumeCandidates(ck.resume_from)) {
      Result<ResumePoint> point =
          TryResumeCheckpoint(candidate, fingerprint, model, &optimizer,
                              sampler.get(), options.epochs);
      if (!point.ok()) {
        PUP_OBS_COUNT("train/resume_rejected", 1);
        PUP_LOG_WARNING << "skipping checkpoint " << candidate << ": "
                        << point.status().message();
        continue;
      }
      start_epoch = point->epochs_completed;
      lr = point->lr;
      if (options.verbose) {
        PUP_LOG_INFO << "resumed from " << candidate << " at epoch "
                     << start_epoch;
      }
      break;
    }
    if (start_epoch == 0) {
      PUP_LOG_WARNING << "no valid checkpoint under '" << ck.resume_from
                      << "'; training from scratch";
    }
  }

  // Buffers reused across every batch of every epoch: the epoch's triple
  // list and the per-batch index columns. Together with the tape arena
  // this makes steady-state steps allocation-free.
  std::vector<data::BprTriple> triples;
  std::vector<uint32_t> users, pos, neg;
  users.reserve(options.batch_size);
  pos.reserve(options.batch_size);
  neg.reserve(options.batch_size);
  ag::TapeArena arena;
  // Reusable tape scanner for --check-numerics: its traversal buffer
  // persists across steps, so clean scans allocate nothing.
  ag::NumericGuard guard;

  for (int epoch = start_epoch; epoch < options.epochs; ++epoch) {
    PUP_OBS_SCOPED_TIMER("train/epoch");
    for (int de : decay_epochs) {
      if (epoch == de && epoch > 0) {
        lr *= 0.1f;
        optimizer.SetLearningRate(lr);
      }
    }

    Stopwatch timer;
    {
      PUP_OBS_SCOPED_TIMER("train/sample_epoch");
      sampler->SampleEpoch(options.negative_rate, &triples);
    }
    PUP_OBS_COUNT("train/triples", triples.size());
    double loss_sum = 0.0;
    size_t num_batches = 0;

    for (size_t start = 0; start < triples.size();
         start += options.batch_size) {
      size_t end = std::min(start + options.batch_size, triples.size());
      users.clear();
      pos.clear();
      neg.clear();
      for (size_t k = start; k < end; ++k) {
        users.push_back(triples[k].user);
        pos.push_back(triples[k].pos_item);
        neg.push_back(triples[k].neg_item);
      }

      {
        // All tape nodes and backward scratch built inside this scope draw
        // from the arena; the handles must die before arena.Reset().
        ag::TapeArena::Scope scope(&arena);
        loss_sum +=
            RunBatchStep(model, users, pos, neg, options, &optimizer, &guard);
        ++num_batches;
      }
      arena.Reset();
    }

    // Epoch boundary: drop pooled backward scratch so an idle model does
    // not pin peak workspace memory. Node blocks stay for the next epoch.
    arena.Trim();

    PUP_OBS_COUNT("train/batches", num_batches);
    PUP_OBS_COUNT("train/epochs", 1);

    EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss = num_batches > 0 ? loss_sum / num_batches : 0.0;
    stats.seconds = timer.Seconds();
    stats.lr = lr;
    history.push_back(stats);
    if (options.verbose) {
      PUP_LOG_INFO << "epoch " << epoch << " loss=" << stats.mean_loss
                   << " lr=" << lr << " (" << stats.seconds << "s)";
    }

    if (saving &&
        ((epoch + 1) % ck.save_every == 0 || epoch + 1 == options.epochs)) {
      std::error_code ec;
      fs::create_directories(ck.directory, ec);
      const std::string path =
          (fs::path(ck.directory) / CheckpointFileName(epoch + 1)).string();
      PUP_OBS_SCOPED_TIMER("train/checkpoint_save");
      Status st = SaveTrainerCheckpoint(fingerprint, model, optimizer,
                                        *sampler, epoch + 1, lr, path);
      if (!st.ok()) {
        PUP_OBS_COUNT("train/checkpoint_save_failed", 1);
        PUP_LOG_WARNING << "checkpoint save failed (" << path
                        << "): " << st.message();
      } else if (options.verbose) {
        PUP_LOG_INFO << "saved checkpoint " << path;
      }
    }

    if (callback && !callback(stats)) break;
  }
  return history;
}

}  // namespace pup::train
