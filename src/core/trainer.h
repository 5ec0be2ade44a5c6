#ifndef ADAMEL_CORE_TRAINER_H_
#define ADAMEL_CORE_TRAINER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "core/features.h"
#include "core/inference.h"
#include "core/linkage_model.h"
#include "core/model.h"
#include "core/quantized_model.h"
#include "data/pair_dataset.h"
#include "nn/serialize.h"

namespace adamel::core {

/// A trained AdaMEL model bound to its feature extractor. The model is
/// frozen: its weights are packed once at construction, and every
/// inference call runs the graph-free forward of core/inference.h.
class TrainedAdamel {
 public:
  TrainedAdamel(std::shared_ptr<FeatureExtractor> extractor,
                std::shared_ptr<const AdamelModel> model);

  /// Match probabilities for every pair of `batch` (sigmoid of Eq. (7)
  /// logits), bitwise equal to Sigmoid(model().Forward(h).logits) but
  /// computed without an autograd graph. Infallible — a TrainedAdamel is
  /// always fitted — and bitwise independent of how pairs are grouped into
  /// batches: scoring chunks by a fixed internal batch size, and every
  /// per-pair value depends only on that pair's row. The serving
  /// micro-batcher relies on this to coalesce concurrent requests without
  /// changing their scores.
  std::vector<float> ScorePairs(data::PairSpan batch) const;

  /// Attention vector f(x_i) per pair — the transferable knowledge K —
  /// bitwise equal to the rows of model().ForwardAttention(h). Used by the
  /// adaptation visualization (Figure 7) and attention analysis (Table 4).
  std::vector<std::vector<float>> AttentionVectors(
      const data::PairDataset& dataset) const;

  /// Mean attention score per feature, sorted descending (Table 4's learned
  /// feature importance).
  std::vector<std::pair<std::string, double>> MeanAttention(
      const data::PairDataset& dataset) const;

  /// Builds the int8-quantized serving twin: weights from the trained
  /// model, activation scales calibrated on `calibration` (typically a
  /// sample of training pairs). Replaces any previous quantized state, and
  /// is persisted by `SaveToFile` as an optional checkpoint section.
  Status EnableQuantizedScoring(data::PairSpan calibration);

  /// True when a quantized twin exists (built here or loaded from a
  /// checkpoint).
  bool HasQuantized() const { return quantized_ != nullptr; }

  /// Int8 scores (see core/quantized_model.h): bitwise deterministic across
  /// batch splits, thread counts, and kernel backends, but NOT bitwise
  /// equal to `ScorePairs` — accuracy parity is held to the golden 2%
  /// PR-AUC/F1 bands instead. `FailedPreconditionError` until
  /// `EnableQuantizedScoring` has run (or a quantized checkpoint loaded).
  StatusOr<std::vector<float>> ScorePairsQuantized(data::PairSpan batch) const;

  int64_t ParameterCount() const { return model_->ParameterCount(); }
  const FeatureExtractor& extractor() const { return *extractor_; }
  const AdamelModel& model() const { return *model_; }

  /// Writes extractor + model to `path` as a self-contained checkpoint: a
  /// reload needs no access to the training data or config used to fit it.
  Status SaveToFile(const std::string& path) const;

  /// Loads a model written by `SaveToFile`. Corrupt, truncated, or
  /// wrong-kind files are rejected with a `Status`; predictions from the
  /// loaded model are bitwise identical to the saved one's.
  static StatusOr<std::shared_ptr<TrainedAdamel>> LoadFromFile(
      const std::string& path);

 private:
  std::shared_ptr<FeatureExtractor> extractor_;
  std::shared_ptr<const AdamelModel> model_;
  std::shared_ptr<const PackedAdamel> packed_;  // model_'s weights, packed
  std::shared_ptr<const QuantizedAdamelModel> quantized_;
};

/// Training diagnostics (one entry per epoch).
struct EpochStats {
  double base_loss = 0.0;
  double target_loss = 0.0;
  /// Mean support loss over the epoch's *support steps* (batches where the
  /// Eq. (13) term was actually computed), not over all batches.
  double support_loss = 0.0;
  /// Batches whose optimizer step was skipped because the gradient norm was
  /// non-finite (see nn::ClipGradNorm).
  int skipped_steps = 0;
};

/// Controls `AdamelTrainer::FitWithCheckpoint`.
struct FitCheckpointOptions {
  /// Checkpoint file. Written crash-safely (atomic rename), so the file on
  /// disk is always a complete checkpoint from some epoch boundary.
  std::string path;
  /// Save after every k-th epoch (the final epoch always saves).
  int save_every = 1;
  /// When true and `path` holds a compatible checkpoint, training resumes
  /// from its epoch boundary instead of starting over. The resumed run is
  /// bitwise identical to an uninterrupted one: model weights, Adam moments,
  /// RNG stream, and the shuffled permutation are all restored exactly.
  bool resume = true;
  /// When > 0, stop (after checkpointing) once this many epochs have run in
  /// this call even if `config.epochs` is not reached — simulates an
  /// interrupted job for tests and demos. 0 = train to completion.
  int max_epochs_this_run = 0;
  /// Warm start: when set (and no resumable train state exists at `path`),
  /// initial model weights are copied from the `TrainedAdamel` checkpoint at
  /// this path instead of the seeded random init. Optimizer moments, the RNG
  /// stream, and the epoch counter still start fresh — this is how a new
  /// data source fine-tunes from the incumbent serving model, whose train
  /// state (tied to the *old* dataset size) cannot resume. The donor must
  /// have the same architecture (feature count and layer shapes);
  /// `kFailedPrecondition` otherwise. Feature extraction is deterministic
  /// from (schema, feature mode, embed dim) — hash embeddings, no fitted
  /// vocabulary — so matching shapes imply the donor's weights are
  /// meaningful for the new extractor.
  std::string warm_start_path;
};

/// Trains AdaMEL per Algorithms 1-3: mini-batch Adam over D_S with, per
/// variant, the KL adaptation term against the mean target-domain attention
/// (Eq. 9-10) and/or the centroid-weighted support loss (Eq. 11-13).
class AdamelTrainer {
 public:
  explicit AdamelTrainer(AdamelConfig config = {});

  /// Trains the given variant. Requirements:
  ///  - kZero/kHyb need `inputs.target_unlabeled`,
  ///  - kFew/kHyb need `inputs.support`.
  /// `history` (optional) receives per-epoch loss diagnostics.
  TrainedAdamel Fit(AdamelVariant variant, const MelInputs& inputs,
                    std::vector<EpochStats>* history = nullptr) const;

  /// `Fit` with crash-safe checkpointing: saves training state at epoch
  /// boundaries to `options.path` and, when a compatible checkpoint already
  /// exists there, resumes from it — continuing bitwise identically to an
  /// uninterrupted run. Fails (without crashing) on corrupt checkpoints or
  /// when the checkpoint was written under a different variant/config/data
  /// size. `history` receives the full loss history, including epochs
  /// restored from the checkpoint.
  StatusOr<std::shared_ptr<TrainedAdamel>> FitWithCheckpoint(
      AdamelVariant variant, const MelInputs& inputs,
      const FitCheckpointOptions& options,
      std::vector<EpochStats>* history = nullptr) const;

  const AdamelConfig& config() const { return config_; }

 private:
  StatusOr<std::shared_ptr<TrainedAdamel>> FitImpl(
      AdamelVariant variant, const MelInputs& inputs,
      const FitCheckpointOptions* checkpoint,
      std::vector<EpochStats>* history) const;

  AdamelConfig config_;
};

/// EntityLinkageModel adapter so AdaMEL variants run in the shared bench
/// harness alongside the baselines.
class AdamelLinkage : public EntityLinkageModel {
 public:
  AdamelLinkage(AdamelVariant variant, AdamelConfig config = {});

  std::string Name() const override;
  Status Fit(const MelInputs& inputs) override;
  StatusOr<std::vector<float>> ScorePairs(
      data::PairSpan batch) const override;
  int64_t ParameterCount() const override;
  bool SupportsCheckpointing() const override { return true; }
  Status SaveCheckpoint(const std::string& path) const override;
  Status LoadCheckpoint(const std::string& path) override;
  bool SupportsQuantizedScoring() const override;
  StatusOr<std::vector<float>> ScorePairsQuantized(
      data::PairSpan batch) const override;
  Status EnableQuantizedScoring(data::PairSpan calibration) override;

  /// Access to the trained model (after Fit) for attention analysis.
  const TrainedAdamel& trained() const;

 private:
  AdamelVariant variant_;
  AdamelTrainer trainer_;
  std::unique_ptr<TrainedAdamel> trained_;
};

}  // namespace adamel::core

#endif  // ADAMEL_CORE_TRAINER_H_
