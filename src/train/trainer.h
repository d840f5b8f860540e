// Minibatch BPR training loop (§III-D).
//
// Models expose their per-batch differentiable forward pass through
// BprTrainable; the trainer owns sampling, batching, the Adam optimizer,
// the paper's divide-by-10-twice learning-rate schedule, and L2
// regularization of the embeddings involved in each batch.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "autograd/numeric_guard.h"
#include "autograd/optimizer.h"
#include "autograd/tensor.h"
#include "ckpt/checkpoint.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/sampler.h"

namespace pup::train {

/// Crash-safe checkpointing of a training run (see docs/checkpointing.md).
///
/// Snapshots capture the model's TrainableState (its tensors and dropout
/// stream), the optimizer moments, the sampler RNG, and the epoch cursor —
/// enough
/// that `train K epochs → kill → resume → N-K epochs` replays the exact
/// losses and metrics of an uninterrupted N-epoch run, at any --threads.
struct CheckpointOptions {
  /// Directory for periodic snapshots (created if missing); empty
  /// disables saving.
  std::string directory;
  /// Snapshot every N completed epochs, plus always after the final
  /// epoch; 0 disables periodic saves.
  int save_every = 0;
  /// Checkpoint file — or directory holding `ckpt-*.pupc` snapshots — to
  /// resume from; empty starts fresh. A corrupt or mismatched candidate
  /// is skipped with a warning in favor of the newest valid one; if none
  /// is valid, training starts from scratch rather than aborting.
  std::string resume_from;
};

/// Reads the standard checkpoint flags — --ckpt-dir DIR, --save-every N,
/// --resume PATH — shared by pup_cli and every example. InvalidArgument
/// when --save-every is not a non-negative integer, or is positive
/// without --ckpt-dir (either would silently disable snapshots).
Result<CheckpointOptions> CheckpointOptionsFromFlags(const Flags& flags);

/// Reads --max-neighbors N, the graph models' per-node fan-in cap shared
/// by pup_cli and the examples (absent: 0, every edge kept).
/// InvalidArgument when N is not a non-negative integer, which would
/// otherwise silently train on the full graph.
Result<size_t> MaxNeighborsFromFlags(const Flags& flags);

/// Hyper-parameters of a training run (§V-A3 defaults, scaled down).
struct TrainOptions {
  int epochs = 40;
  size_t batch_size = 1024;
  float learning_rate = 1e-2f;
  /// λ of eq. (4); applied to the L2 terms the model reports per batch,
  /// normalized by batch size. The paper grid-searches this; 3e-2 is the
  /// value that keeps 64-dim embeddings from memorizing the small
  /// benchmark datasets.
  float l2_reg = 3e-2f;
  /// Negatives sampled per positive (paper: 1).
  int negative_rate = 1;
  /// Negative-sampling strategy (docs/sampling.md). kUniform is the
  /// bitwise-golden default; popularity/price draw harder negatives
  /// through an O(1) alias table rebuilt each epoch.
  data::NegSampling neg_sampling = data::NegSampling::kUniform;
  /// Exponent on the weighted-sampling counts (ignored for kUniform).
  double neg_alpha = 0.75;
  uint64_t seed = 7;
  /// Learning rate is divided by 10 when these fractions of the epochs
  /// complete (paper: "reduce the learning rate by a factor of 10 twice").
  std::vector<double> lr_decay_at = {0.5, 0.75};
  bool verbose = false;
  /// Crash-safe snapshot/resume of this run; disabled by default.
  CheckpointOptions checkpoint;
  /// Scan every step's forward activations and backward gradients for
  /// NaN/Inf (ag::NumericGuard, op-level provenance). The scalar batch
  /// loss is validated every step regardless. Defaults on in Debug
  /// builds, off in Release; --check-numerics overrides either way.
  bool check_numerics = ag::kCheckNumericsDefault;
};

/// Applies the --check-numerics[=0|1] flag to `options` — shared by
/// pup_cli and every example (mirrors CheckpointOptionsFromFlags).
void ApplyCheckNumericsFlag(const Flags& flags, TrainOptions* options);

/// Applies --neg-sampling {uniform,popularity,price} and --neg-alpha to
/// `options`; InvalidArgument on an unknown strategy name.
Status ApplyNegSamplingFlags(const Flags& flags, TrainOptions* options);

/// Everything training mutates in a model, named once. The trainer builds
/// its optimizer from `tensors` and snapshots the lot: each tensor as
/// section "model/<name>", then the dropout stream as "model/dropout_rng".
struct TrainableState {
  /// Stable identifier of the model family ("pup", "bpr-mf", …). Stored
  /// in every snapshot; a resume into another family is refused.
  std::string key;
  /// Trainable tensors in optimizer order, each with its section name.
  std::vector<std::pair<std::string, ag::Tensor>> tensors;
  /// Training-time RNG stream (dropout); null when the model has none.
  Rng* dropout_rng = nullptr;
};

/// A model trainable with BPR: names its trainable state and writes its
/// one differentiable forward for a (users, positives, negatives) batch.
/// The trainer applies the BPR head (eq. 4) to what the forward returns.
class BprTrainable {
 public:
  virtual ~BprTrainable() = default;

  /// The model's trainable state — the one place it lists its tensors.
  /// The tensors are null until the model's Fit creates them.
  virtual TrainableState State() = 0;

  /// The tensors of State(), in order (for the optimizer).
  std::vector<ag::Tensor> Parameters();

  /// Differentiable outputs for one batch, in one of two shapes. A model
  /// whose score is a row dot s(u, i) = ⟨user, item⟩ sets `user`, `pos`
  /// and `neg`; every other model sets `pos_scores` and `neg_scores`.
  struct BatchGraph {
    ag::Tensor user;        // (B, d)
    ag::Tensor pos;         // (B, d)
    ag::Tensor neg;         // (B, d)
    ag::Tensor pos_scores;  // (B, 1)
    ag::Tensor neg_scores;  // (B, 1)
    /// Tensors whose squared norm is L2-regularized (typically the raw
    /// embeddings gathered for this batch). May be empty.
    std::vector<ag::Tensor> l2_terms;
  };

  /// The model's forward, the only one it writes. Training calls it, and
  /// so may a caller of a fitted model (training = false), e.g. to check
  /// that the folded scorer matches it.
  virtual BatchGraph ForwardBatch(const std::vector<uint32_t>& users,
                                  const std::vector<uint32_t>& pos_items,
                                  const std::vector<uint32_t>& neg_items,
                                  bool training) = 0;

  /// Differentiable loss for one batch: the BPR data term plus the tensors
  /// to L2-regularize (the trainer adds the penalty).
  struct BatchLossGraph {
    ag::Tensor loss;  // (1, 1) BPR data term.
    std::vector<ag::Tensor> l2_terms;
  };

  /// ForwardBatch plus the BPR head: the fused ag::RowDotSigmoidBpr for a
  /// row-dot batch, ag::BprLoss for a scores batch. Dies unless the batch
  /// sets exactly one of the two shapes. No model overrides it; it is
  /// virtual only so the benchmark's step clock (bench_ledger) can stamp
  /// each training step.
  virtual BatchLossGraph ForwardBatchLoss(const std::vector<uint32_t>& users,
                                          const std::vector<uint32_t>& pos_items,
                                          const std::vector<uint32_t>& neg_items,
                                          bool training);
};

/// Per-epoch telemetry.
struct EpochStats {
  int epoch = 0;
  double mean_loss = 0.0;
  double seconds = 0.0;
  /// Learning rate the epoch ran at (after any decay applied on entry).
  float lr = 0.0f;
};

/// Called after each epoch; return false to stop early.
using EpochCallback = std::function<bool(const EpochStats&)>;

/// Where a successful resume left the run.
struct ResumePoint {
  int epochs_completed = 0;
  float lr = 0.0f;
};

/// Applies one checkpoint file to (model, optimizer, sampler) —
/// all-or-nothing. Every section is read and validated into staged
/// locals first (header, fingerprint, model key, epoch cursor, lr,
/// sampler RNG, optimizer state via Optimizer::ValidateState, and each
/// of the model's State() sections, shape-checked against its live
/// tensor); live state is mutated only after the entire file has been
/// accepted, so a rejected checkpoint — truncated, bit-flipped, or from
/// a different architecture — leaves model, optimizer, and sampler
/// bitwise-untouched and the caller free to try the next candidate.
/// TrainBpr calls this for every resume candidate; it is public so tests
/// can prove the no-mutation contract.
Result<ResumePoint> TryResumeCheckpoint(
    const std::string& path, const ckpt::DatasetFingerprint& fingerprint,
    BprTrainable* model, ag::Optimizer* optimizer,
    data::NegativeSampler* sampler, int total_epochs);

/// Runs the full BPR training loop on `train` interactions.
/// Returns per-epoch stats.
std::vector<EpochStats> TrainBpr(BprTrainable* model,
                                 const data::Dataset& dataset,
                                 const std::vector<data::Interaction>& train,
                                 const TrainOptions& options,
                                 const EpochCallback& callback = nullptr);

}  // namespace pup::train
