#include "core/trainer.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "obs/telemetry.h"

namespace adamel::core {
namespace {

constexpr int kPredictBatch = 512;
constexpr float kProbEps = 1e-8f;

// Calls fn(start, count) for every kPredictBatch-row chunk of `rows`, across
// the pool. Chunks are independent at inference time: each reads the frozen
// weights and writes a disjoint output slice, and the forward is row-local,
// so results do not depend on the chunking or the thread count.
template <typename Fn>
void ForEachPredictBatch(int rows, const Fn& fn) {
  const int batches = (rows + kPredictBatch - 1) / kPredictBatch;
  ParallelFor(0, batches, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t batch = lo; batch < hi; ++batch) {
      const int start = static_cast<int>(batch) * kPredictBatch;
      fn(start, std::min(kPredictBatch, rows - start));
    }
  });
}

#if ADAMEL_TELEMETRY_ENABLED
// Shannon entropy (nats) of the batch-mean attention distribution — the
// paper's α importance weights (Figures 6-8). Pure read of detached values;
// never feeds back into training.
double AttentionEntropy(const nn::Tensor& attention) {
  const int rows = attention.rows();
  const int cols = attention.cols();
  if (rows == 0 || cols == 0) {
    return 0.0;
  }
  double entropy = 0.0;
  double total = 0.0;
  std::vector<double> mean(static_cast<size_t>(cols), 0.0);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      mean[static_cast<size_t>(c)] += attention.At(r, c);
    }
  }
  for (int c = 0; c < cols; ++c) {
    total += mean[static_cast<size_t>(c)];
  }
  if (total <= 0.0) {
    return 0.0;
  }
  for (int c = 0; c < cols; ++c) {
    const double p = mean[static_cast<size_t>(c)] / total;
    if (p > 0.0) {
      entropy -= p * std::log(p);
    }
  }
  return entropy;
}
#endif  // ADAMEL_TELEMETRY_ENABLED

// Euclidean distance between two equal-length float vectors.
double Distance(const std::vector<float>& a, const std::vector<float>& b) {
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = static_cast<double>(a[i]) - b[i];
    acc += diff * diff;
  }
  return std::sqrt(acc);
}

// Source-domain attention centroids and mean distances of Eq. (11)-(12),
// recomputed per epoch on a detached subsample of D_S.
struct SourceCentroids {
  std::vector<float> positive;
  std::vector<float> negative;
  double mean_distance_positive = 1.0;
  double mean_distance_negative = 1.0;
  bool valid = false;
};

SourceCentroids ComputeCentroids(const AdamelModel& model,
                                 const FeaturizedPairs& source, Rng* rng) {
  // A detached forward pass; charged to kForward so per-epoch wall time
  // stays attributed.
  ADAMEL_PHASE_SCOPE(::adamel::obs::Phase::kForward);
  SourceCentroids result;
  const int n = source.pair_count;
  const int sample = std::min(n, 256);
  std::vector<int> indices = rng->SampleWithoutReplacement(n, sample);
  const nn::Tensor h = nn::SelectRows(source.matrix, indices);
  const nn::Tensor attention = model.ForwardAttention(h).Detach();
  const int f = attention.cols();

  std::vector<std::vector<float>> rows_positive;
  std::vector<std::vector<float>> rows_negative;
  for (int i = 0; i < attention.rows(); ++i) {
    std::vector<float> row(f);
    for (int j = 0; j < f; ++j) {
      row[j] = attention.At(i, j);
    }
    if (source.labels[indices[i]] > 0.5f) {
      rows_positive.push_back(std::move(row));
    } else {
      rows_negative.push_back(std::move(row));
    }
  }
  if (rows_positive.empty() || rows_negative.empty()) {
    return result;
  }
  auto centroid = [f](const std::vector<std::vector<float>>& rows) {
    std::vector<float> c(f, 0.0f);
    for (const auto& row : rows) {
      for (int j = 0; j < f; ++j) {
        c[j] += row[j];
      }
    }
    for (float& v : c) {
      v /= static_cast<float>(rows.size());
    }
    return c;
  };
  result.positive = centroid(rows_positive);
  result.negative = centroid(rows_negative);
  auto mean_distance = [](const std::vector<std::vector<float>>& rows,
                          const std::vector<float>& c) {
    double acc = 0.0;
    for (const auto& row : rows) {
      acc += Distance(row, c);
    }
    return std::max(acc / rows.size(), 1e-6);
  };
  result.mean_distance_positive =
      mean_distance(rows_positive, result.positive);
  result.mean_distance_negative =
      mean_distance(rows_negative, result.negative);
  result.valid = true;
  return result;
}

// Per-example support weights of Eq. (12): d(f(x_i), c^{y_i}) / d_bar^{y_i},
// computed from detached support attentions. Clamped for stability.
std::vector<float> SupportWeights(const nn::Tensor& support_attention,
                                  const std::vector<float>& labels,
                                  const SourceCentroids& centroids) {
  const int n = support_attention.rows();
  const int f = support_attention.cols();
  ADAMEL_DCHECK_EQ(static_cast<int>(labels.size()), n);
  std::vector<float> weights(n, 1.0f);
  if (!centroids.valid) {
    return weights;
  }
  for (int i = 0; i < n; ++i) {
    std::vector<float> row(f);
    for (int j = 0; j < f; ++j) {
      row[j] = support_attention.At(i, j);
    }
    const bool positive = labels[i] > 0.5f;
    const double d = Distance(row, positive ? centroids.positive
                                            : centroids.negative);
    const double d_bar = positive ? centroids.mean_distance_positive
                                  : centroids.mean_distance_negative;
    weights[i] = static_cast<float>(std::clamp(d / d_bar, 0.25, 4.0));
  }
  return weights;
}

// Checkpoint "kind" tags: a training-state file and a trained-model file
// share the container format, so each declares what it is and loaders
// reject the other kind instead of misreading it.
constexpr char kTrainStateKind[] = "adamel.train_state";
constexpr char kTrainedModelKind[] = "adamel.trained_model";

bool FileExists(const std::string& path) {
  struct ::stat file_stat;
  return ::stat(path.c_str(), &file_stat) == 0;
}

void WriteRngState(const Rng& rng, nn::BlobWriter* writer) {
  const RngState state = rng.GetState();
  for (uint64_t word : state.state) {
    writer->WriteU64(word);
  }
  writer->WriteBool(state.has_cached_normal);
  writer->WriteF64(state.cached_normal);
}

Status ReadRngState(nn::BlobReader* reader, Rng* rng) {
  RngState state;
  for (uint64_t& word : state.state) {
    ADAMEL_RETURN_IF_ERROR(reader->ReadU64(&word));
  }
  ADAMEL_RETURN_IF_ERROR(reader->ReadBool(&state.has_cached_normal));
  ADAMEL_RETURN_IF_ERROR(reader->ReadF64(&state.cached_normal));
  rng->SetState(state);
  return OkStatus();
}

// Writes everything needed to continue training from the next epoch bitwise
// identically: weights, Adam moments + step count, the RNG stream, the
// permutation (epoch e's order seeds epoch e+1's shuffle), and the loss
// history so a resumed run reports the same full trajectory.
Status SaveTrainState(const std::string& path, AdamelVariant variant,
                      const AdamelConfig& config, int epochs_done,
                      const AdamelModel& model, const nn::Adam& optimizer,
                      const Rng& rng, const std::vector<int>& permutation,
                      const std::vector<EpochStats>& history) {
  nn::CheckpointWriter writer;
  {
    nn::BlobWriter meta;
    meta.WriteString(kTrainStateKind);
    meta.WriteU8(static_cast<uint8_t>(variant));
    meta.WriteI32(epochs_done);
    meta.WriteI32(model.feature_count());
    meta.WriteU64(permutation.size());
    writer.AddSection("meta", meta.TakeBuffer());
  }
  {
    nn::BlobWriter blob;
    WriteAdamelConfig(config, &blob);
    writer.AddSection("config", blob.TakeBuffer());
  }
  {
    nn::BlobWriter blob;
    nn::WriteNamedTensors(model.NamedParameters(), &blob);
    writer.AddSection("model", blob.TakeBuffer());
  }
  {
    nn::BlobWriter blob;
    optimizer.SaveState(&blob);
    writer.AddSection("optimizer", blob.TakeBuffer());
  }
  {
    nn::BlobWriter blob;
    WriteRngState(rng, &blob);
    writer.AddSection("rng", blob.TakeBuffer());
  }
  {
    nn::BlobWriter blob;
    for (int index : permutation) {
      blob.WriteI32(index);
    }
    writer.AddSection("permutation", blob.TakeBuffer());
  }
  {
    nn::BlobWriter blob;
    blob.WriteU64(history.size());
    for (const EpochStats& stats : history) {
      blob.WriteF64(stats.base_loss);
      blob.WriteF64(stats.target_loss);
      blob.WriteF64(stats.support_loss);
      blob.WriteI32(stats.skipped_steps);
    }
    writer.AddSection("history", blob.TakeBuffer());
  }
  return writer.WriteFile(path);
}

// Restores the state written by `SaveTrainState` into the freshly
// constructed model/optimizer/rng, refusing checkpoints that were written
// under a different variant, config, architecture, or training-set size
// (any of which would make the resumed run non-reproducible).
Status LoadTrainState(const std::string& path, AdamelVariant variant,
                      const AdamelConfig& config, int expected_n,
                      AdamelModel* model, nn::Adam* optimizer, Rng* rng,
                      int* epochs_done, std::vector<int>* permutation,
                      std::vector<EpochStats>* history) {
  StatusOr<nn::CheckpointReader> reader_or =
      nn::CheckpointReader::ReadFile(path);
  if (!reader_or.ok()) {
    return reader_or.status();
  }
  const nn::CheckpointReader& reader = reader_or.value();

  StatusOr<nn::BlobReader> meta_or = reader.Section("meta");
  if (!meta_or.ok()) {
    return meta_or.status();
  }
  nn::BlobReader meta = meta_or.value();
  std::string kind;
  ADAMEL_RETURN_IF_ERROR(meta.ReadString(&kind));
  if (kind != kTrainStateKind) {
    return FailedPreconditionError("'" + path +
                                   "' is not a training-state checkpoint "
                                   "(kind '" +
                                   kind + "')");
  }
  uint8_t saved_variant = 0;
  ADAMEL_RETURN_IF_ERROR(meta.ReadU8(&saved_variant));
  if (saved_variant != static_cast<uint8_t>(variant)) {
    return FailedPreconditionError(
        std::string("checkpoint was written for a different variant than ") +
        AdamelVariantName(variant));
  }
  int32_t saved_epochs = 0;
  ADAMEL_RETURN_IF_ERROR(meta.ReadI32(&saved_epochs));
  if (saved_epochs < 0 || saved_epochs > config.epochs) {
    return FailedPreconditionError(
        "checkpoint epoch count " + std::to_string(saved_epochs) +
        " outside configured range [0, " + std::to_string(config.epochs) +
        "]");
  }
  int32_t saved_features = 0;
  ADAMEL_RETURN_IF_ERROR(meta.ReadI32(&saved_features));
  if (saved_features != model->feature_count()) {
    return FailedPreconditionError(
        "checkpoint has " + std::to_string(saved_features) +
        " features, current data has " +
        std::to_string(model->feature_count()));
  }
  uint64_t saved_n = 0;
  ADAMEL_RETURN_IF_ERROR(meta.ReadU64(&saved_n));
  if (saved_n != static_cast<uint64_t>(expected_n)) {
    return FailedPreconditionError(
        "checkpoint was written over " + std::to_string(saved_n) +
        " training pairs, current data has " + std::to_string(expected_n));
  }

  {
    StatusOr<nn::BlobReader> blob_or = reader.Section("config");
    if (!blob_or.ok()) {
      return blob_or.status();
    }
    nn::BlobReader blob = blob_or.value();
    AdamelConfig saved_config;
    ADAMEL_RETURN_IF_ERROR(ReadAdamelConfig(&blob, &saved_config));
    if (!SameAdamelConfig(saved_config, config)) {
      return FailedPreconditionError(
          "checkpoint config differs from the current config; resuming "
          "would not reproduce an uninterrupted run");
    }
  }
  {
    StatusOr<nn::BlobReader> blob_or = reader.Section("model");
    if (!blob_or.ok()) {
      return blob_or.status();
    }
    nn::BlobReader blob = blob_or.value();
    ADAMEL_RETURN_IF_ERROR(
        nn::ReadNamedTensorsInto(&blob, model->NamedParameters()));
  }
  {
    StatusOr<nn::BlobReader> blob_or = reader.Section("optimizer");
    if (!blob_or.ok()) {
      return blob_or.status();
    }
    nn::BlobReader blob = blob_or.value();
    ADAMEL_RETURN_IF_ERROR(optimizer->LoadState(&blob));
  }
  {
    StatusOr<nn::BlobReader> blob_or = reader.Section("rng");
    if (!blob_or.ok()) {
      return blob_or.status();
    }
    nn::BlobReader blob = blob_or.value();
    ADAMEL_RETURN_IF_ERROR(ReadRngState(&blob, rng));
  }
  {
    StatusOr<nn::BlobReader> blob_or = reader.Section("permutation");
    if (!blob_or.ok()) {
      return blob_or.status();
    }
    nn::BlobReader blob = blob_or.value();
    std::vector<int> saved(expected_n);
    std::vector<bool> seen(expected_n, false);
    for (int i = 0; i < expected_n; ++i) {
      int32_t index = 0;
      ADAMEL_RETURN_IF_ERROR(blob.ReadI32(&index));
      if (index < 0 || index >= expected_n || seen[index]) {
        return InvalidArgumentError(
            "corrupt checkpoint: stored permutation is not a permutation");
      }
      seen[index] = true;
      saved[i] = index;
    }
    *permutation = std::move(saved);
  }
  {
    StatusOr<nn::BlobReader> blob_or = reader.Section("history");
    if (!blob_or.ok()) {
      return blob_or.status();
    }
    nn::BlobReader blob = blob_or.value();
    uint64_t count = 0;
    ADAMEL_RETURN_IF_ERROR(blob.ReadU64(&count));
    if (count != static_cast<uint64_t>(saved_epochs)) {
      return InvalidArgumentError(
          "corrupt checkpoint: history length does not match epoch count");
    }
    std::vector<EpochStats> saved(count);
    for (EpochStats& stats : saved) {
      ADAMEL_RETURN_IF_ERROR(blob.ReadF64(&stats.base_loss));
      ADAMEL_RETURN_IF_ERROR(blob.ReadF64(&stats.target_loss));
      ADAMEL_RETURN_IF_ERROR(blob.ReadF64(&stats.support_loss));
      ADAMEL_RETURN_IF_ERROR(blob.ReadI32(&stats.skipped_steps));
    }
    *history = std::move(saved);
  }
  *epochs_done = saved_epochs;
  return OkStatus();
}

}  // namespace

TrainedAdamel::TrainedAdamel(std::shared_ptr<FeatureExtractor> extractor,
                             std::shared_ptr<const AdamelModel> model)
    : extractor_(std::move(extractor)), model_(std::move(model)) {
  ADAMEL_CHECK(extractor_ != nullptr);
  ADAMEL_CHECK(model_ != nullptr);
  packed_ = std::make_shared<const PackedAdamel>(*model_);
}

std::vector<float> TrainedAdamel::ScorePairs(data::PairSpan batch) const {
  const FeaturizedPairs features = extractor_->Featurize(batch);
  ADAMEL_PHASE_SCOPE(::adamel::obs::Phase::kEval);
  ADAMEL_TRACE_SCOPE("predict.score");
  ADAMEL_COUNTER_ADD("predict.pairs", features.pair_count);
  const float* h = features.matrix.data().data();
  const int cols = features.matrix.cols();
  std::vector<float> scores(features.pair_count);
  ForEachPredictBatch(features.pair_count, [&](int start, int count) {
    RunForward(packed_->params(), *packed_,
               h + static_cast<size_t>(start) * cols, count,
               scores.data() + start, /*attention=*/nullptr);
  });
  return scores;
}

Status TrainedAdamel::EnableQuantizedScoring(data::PairSpan calibration) {
  if (calibration.empty()) {
    return InvalidArgumentError("quantization calibration span is empty");
  }
  const FeaturizedPairs features = extractor_->Featurize(calibration);
  StatusOr<std::shared_ptr<const QuantizedAdamelModel>> quantized =
      QuantizedAdamelModel::Build(*model_, features.matrix.data().data(),
                                  features.pair_count);
  if (!quantized.ok()) {
    return quantized.status();
  }
  quantized_ = std::move(quantized).value();
  return OkStatus();
}

StatusOr<std::vector<float>> TrainedAdamel::ScorePairsQuantized(
    data::PairSpan batch) const {
  if (quantized_ == nullptr) {
    return FailedPreconditionError(
        "quantized scoring requested before EnableQuantizedScoring (or a "
        "checkpoint without a quantized section)");
  }
  const FeaturizedPairs features = extractor_->Featurize(batch);
  ADAMEL_PHASE_SCOPE(::adamel::obs::Phase::kEval);
  ADAMEL_TRACE_SCOPE("predict.score_quantized");
  ADAMEL_COUNTER_ADD("predict.quantized_pairs", features.pair_count);
  const float* h = features.matrix.data().data();
  const int cols = features.matrix.cols();
  std::vector<float> scores(features.pair_count);
  ForEachPredictBatch(features.pair_count, [&](int start, int count) {
    quantized_->Score(h + static_cast<size_t>(start) * cols, count,
                      scores.data() + start);
  });
  return scores;
}

std::vector<std::vector<float>> TrainedAdamel::AttentionVectors(
    const data::PairDataset& dataset) const {
  const FeaturizedPairs features = extractor_->Featurize(dataset);
  const float* h = features.matrix.data().data();
  const int cols = features.matrix.cols();
  const int f = model_->feature_count();
  std::vector<std::vector<float>> vectors(features.pair_count);
  ForEachPredictBatch(features.pair_count, [&](int start, int count) {
    std::vector<float> attention(static_cast<size_t>(count) * f);
    RunForward(packed_->params(), *packed_,
               h + static_cast<size_t>(start) * cols, count,
               /*scores=*/nullptr, attention.data());
    for (int i = 0; i < count; ++i) {
      vectors[start + i].assign(attention.begin() + i * f,
                                attention.begin() + (i + 1) * f);
    }
  });
  return vectors;
}

std::vector<std::pair<std::string, double>> TrainedAdamel::MeanAttention(
    const data::PairDataset& dataset) const {
  const std::vector<std::vector<float>> vectors = AttentionVectors(dataset);
  ADAMEL_CHECK(!vectors.empty());
  const std::vector<std::string>& names = extractor_->feature_names();
  std::vector<std::pair<std::string, double>> result;
  for (size_t j = 0; j < names.size(); ++j) {
    double mean = 0.0;
    for (const auto& row : vectors) {
      mean += row[j];
    }
    result.emplace_back(names[j], mean / vectors.size());
  }
  std::sort(result.begin(), result.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return result;
}

Status TrainedAdamel::SaveToFile(const std::string& path) const {
  nn::CheckpointWriter writer;
  {
    nn::BlobWriter meta;
    meta.WriteString(kTrainedModelKind);
    writer.AddSection("meta", meta.TakeBuffer());
  }
  {
    nn::BlobWriter blob;
    extractor_->Save(&blob);
    writer.AddSection("extractor", blob.TakeBuffer());
  }
  {
    nn::BlobWriter blob;
    model_->Save(&blob);
    writer.AddSection("model", blob.TakeBuffer());
  }
  // Optional: readers without quantized support simply ignore the extra
  // section, and files written before this section existed still load.
  if (quantized_ != nullptr) {
    nn::BlobWriter blob;
    quantized_->Save(&blob);
    writer.AddSection("quantized", blob.TakeBuffer());
  }
  return writer.WriteFile(path);
}

StatusOr<std::shared_ptr<TrainedAdamel>> TrainedAdamel::LoadFromFile(
    const std::string& path) {
  StatusOr<nn::CheckpointReader> reader_or =
      nn::CheckpointReader::ReadFile(path);
  if (!reader_or.ok()) {
    return reader_or.status();
  }
  const nn::CheckpointReader& reader = reader_or.value();
  {
    StatusOr<nn::BlobReader> meta_or = reader.Section("meta");
    if (!meta_or.ok()) {
      return meta_or.status();
    }
    nn::BlobReader meta = meta_or.value();
    std::string kind;
    ADAMEL_RETURN_IF_ERROR(meta.ReadString(&kind));
    if (kind != kTrainedModelKind) {
      return FailedPreconditionError("'" + path +
                                     "' is not a trained-model checkpoint "
                                     "(kind '" +
                                     kind + "')");
    }
  }
  StatusOr<nn::BlobReader> extractor_or = reader.Section("extractor");
  if (!extractor_or.ok()) {
    return extractor_or.status();
  }
  nn::BlobReader extractor_blob = extractor_or.value();
  StatusOr<std::shared_ptr<FeatureExtractor>> extractor =
      FeatureExtractor::Load(&extractor_blob);
  if (!extractor.ok()) {
    return extractor.status();
  }
  StatusOr<nn::BlobReader> model_or = reader.Section("model");
  if (!model_or.ok()) {
    return model_or.status();
  }
  nn::BlobReader model_blob = model_or.value();
  StatusOr<std::shared_ptr<AdamelModel>> model =
      AdamelModel::Load(&model_blob);
  if (!model.ok()) {
    return model.status();
  }
  if ((*model)->feature_count() != (*extractor)->feature_count()) {
    return InvalidArgumentError(
        "corrupt checkpoint: model feature count does not match extractor");
  }
  auto trained = std::make_shared<TrainedAdamel>(std::move(extractor).value(),
                                                 std::move(model).value());
  if (reader.HasSection("quantized")) {
    StatusOr<nn::BlobReader> quantized_or = reader.Section("quantized");
    if (!quantized_or.ok()) {
      return quantized_or.status();
    }
    nn::BlobReader quantized_blob = quantized_or.value();
    StatusOr<std::shared_ptr<const QuantizedAdamelModel>> quantized =
        QuantizedAdamelModel::Load(&quantized_blob);
    if (!quantized.ok()) {
      return quantized.status();
    }
    // Both forwards read the same featurized rows.
    const AdamelModel& model = trained->model();
    if ((*quantized)->input_cols() !=
        model.feature_count() * model.config().embed_dim) {
      return InvalidArgumentError(
          "corrupt checkpoint: quantized input width does not match model");
    }
    trained->quantized_ = std::move(quantized).value();
  }
  return trained;
}

AdamelTrainer::AdamelTrainer(AdamelConfig config) : config_(config) {}

TrainedAdamel AdamelTrainer::Fit(AdamelVariant variant,
                                 const MelInputs& inputs,
                                 std::vector<EpochStats>* history) const {
  StatusOr<std::shared_ptr<TrainedAdamel>> trained =
      FitImpl(variant, inputs, /*checkpoint=*/nullptr, history);
  // Without checkpointing there is no fallible I/O; a failure here would be
  // a programming error, not a user-recoverable condition.
  ADAMEL_CHECK(trained.ok()) << trained.status().ToString();
  return *trained.value();
}

StatusOr<std::shared_ptr<TrainedAdamel>> AdamelTrainer::FitWithCheckpoint(
    AdamelVariant variant, const MelInputs& inputs,
    const FitCheckpointOptions& options,
    std::vector<EpochStats>* history) const {
  if (options.path.empty()) {
    return InvalidArgumentError("FitCheckpointOptions.path must be set");
  }
  if (options.save_every <= 0) {
    return InvalidArgumentError("FitCheckpointOptions.save_every must be >= 1");
  }
  return FitImpl(variant, inputs, &options, history);
}

StatusOr<std::shared_ptr<TrainedAdamel>> AdamelTrainer::FitImpl(
    AdamelVariant variant, const MelInputs& inputs,
    const FitCheckpointOptions* checkpoint,
    std::vector<EpochStats>* history) const {
  ADAMEL_CHECK(inputs.source_train != nullptr);
  ADAMEL_CHECK(!inputs.source_train->empty());
  const bool use_target = variant == AdamelVariant::kZero ||
                          variant == AdamelVariant::kHyb;
  const bool use_support = variant == AdamelVariant::kFew ||
                           variant == AdamelVariant::kHyb;
  if (use_target) {
    ADAMEL_CHECK(inputs.target_unlabeled != nullptr &&
                 !inputs.target_unlabeled->empty())
        << AdamelVariantName(variant) << " requires target-domain data";
  }
  if (use_support) {
    ADAMEL_CHECK(inputs.support != nullptr && !inputs.support->empty())
        << AdamelVariantName(variant) << " requires a support set";
  }

  auto extractor = std::make_shared<FeatureExtractor>(
      inputs.source_train->schema(), config_.feature_mode, config_.embed_dim);
  const FeaturizedPairs source = extractor->Featurize(*inputs.source_train);
  FeaturizedPairs target;
  if (use_target) {
    target = extractor->Featurize(
        inputs.target_unlabeled->Reproject(extractor->schema()));
  }
  FeaturizedPairs support;
  if (use_support) {
    support =
        extractor->Featurize(inputs.support->Reproject(extractor->schema()));
  }

  Rng rng(config_.seed);
  auto model = std::make_shared<AdamelModel>(extractor->feature_count(),
                                             config_, &rng);
  nn::Adam optimizer(model->Parameters(), config_.learning_rate, 0.9f,
                     0.999f, 1e-8f, config_.weight_decay);

  // The lambda mix of Eq. (9)/(14): at lambda=1 no label supervision remains
  // and the model collapses to distribution matching — the paper's Figure 8
  // shows exactly this cliff, and the lambda-sweep bench reproduces it.
  const float base_weight = use_target ? (1.0f - config_.lambda) : 1.0f;
  const float target_weight = use_target ? config_.lambda : 0.0f;

  const int n = source.pair_count;
  // Featurization must produce one label and one matrix row per pair, or the
  // batch assembly below would read out of bounds / mislabel examples.
  ADAMEL_DCHECK_EQ(static_cast<int>(source.labels.size()), n);
  ADAMEL_DCHECK_EQ(source.matrix.rows(), n);
  if (use_support) {
    ADAMEL_DCHECK_EQ(static_cast<int>(support.labels.size()),
                     support.pair_count);
  }
  std::vector<int> permutation(n);
  std::iota(permutation.begin(), permutation.end(), 0);

  // Epochs completed so far and their stats — loaded from the checkpoint on
  // resume so the final history matches an uninterrupted run's.
  std::vector<EpochStats> full_history;
  int start_epoch = 0;
  if (checkpoint != nullptr && checkpoint->resume &&
      FileExists(checkpoint->path)) {
    ADAMEL_RETURN_IF_ERROR(LoadTrainState(
        checkpoint->path, variant, config_, n, model.get(), &optimizer, &rng,
        &start_epoch, &permutation, &full_history));
  } else if (checkpoint != nullptr && !checkpoint->warm_start_path.empty()) {
    // Warm start from a donor model checkpoint: weights only, everything
    // else (Adam moments, RNG, epoch counter) starts fresh. Only taken when
    // there is no resumable train state — an interrupted warm-started run
    // resumes from its own train state, not from the donor again.
    StatusOr<std::shared_ptr<TrainedAdamel>> donor =
        TrainedAdamel::LoadFromFile(checkpoint->warm_start_path);
    if (!donor.ok()) {
      return donor.status();
    }
    if ((*donor)->model().feature_count() != extractor->feature_count()) {
      return FailedPreconditionError(
          "warm-start donor '" + checkpoint->warm_start_path + "' has " +
          std::to_string((*donor)->model().feature_count()) +
          " features, new data produces " +
          std::to_string(extractor->feature_count()) +
          " (schema or feature config differs)");
    }
    ADAMEL_RETURN_IF_ERROR(nn::CopyNamedTensors(
        (*donor)->model().NamedParameters(), model->NamedParameters()));
  }

  SourceCentroids centroids;
  for (int epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(permutation);
    if (use_support) {
      centroids = ComputeCentroids(*model, source, &rng);
    }
    EpochStats stats;
    int batches = 0;
    int support_steps = 0;
#if ADAMEL_TELEMETRY_ENABLED
    // Read-only telemetry accumulators; they never feed back into training.
    double grad_norm_sum = 0.0;
    double alpha_entropy_sum = 0.0;
#endif
    for (int start = 0; start < n; start += config_.batch_size) {
      const int count = std::min(config_.batch_size, n - start);
      nn::Tensor base_loss;
      nn::Tensor loss;
      {
        ADAMEL_PHASE_SCOPE(::adamel::obs::Phase::kForward);
        ADAMEL_TRACE_SCOPE("train.forward");
        std::vector<int> batch(permutation.begin() + start,
                               permutation.begin() + start + count);
        const nn::Tensor h = nn::SelectRows(source.matrix, batch);
        const AdamelModel::Output out = model->Forward(h);
        ADAMEL_DCHECK_EQ(out.logits.rows(), count);
        std::vector<float> targets(count);
        for (int i = 0; i < count; ++i) {
          targets[i] = source.labels[batch[i]];
        }
        // Eq. (8).
        base_loss = nn::BceWithLogits(out.logits, targets);
        loss = nn::MulScalar(base_loss, base_weight);

        if (use_target) {
          // Eq. (10): KL between each source pair's attention and the mean
          // attention over a batch of unlabeled target pairs. Gradients flow
          // through both sides, jointly updating W and a for the two domains.
          const int t_count =
              std::min(config_.target_batch, target.pair_count);
          std::vector<int> t_batch =
              rng.SampleWithoutReplacement(target.pair_count, t_count);
          const nn::Tensor h_t = nn::SelectRows(target.matrix, t_batch);
          const nn::Tensor target_attention = model->ForwardAttention(h_t);
          const nn::Tensor mean_target =
              nn::AddScalar(nn::MeanCols(target_attention), kProbEps);
          const nn::Tensor source_attention =
              nn::AddScalar(out.attention, kProbEps);
          const nn::Tensor kl = nn::Sum(nn::Mul(
              mean_target,
              nn::Log(nn::Div(mean_target, source_attention))));
          const nn::Tensor target_loss =
              nn::MulScalar(kl, 1.0f / static_cast<float>(count));
          loss = nn::Add(loss, nn::MulScalar(target_loss, target_weight));
          stats.target_loss += target_loss.At(0, 0);
        }

        const bool support_step =
            use_support &&
            (batches % std::max(1, config_.support_every)) == 0;
        if (support_step) {
          // Eq. (12)-(13): weighted BCE over a support mini-batch, weights
          // from the distance of each support attention vector to the
          // matching source centroid. Subsampling the support set per step
          // keeps the number of gradient updates per support pair comparable
          // to the source pairs (the full set every step would overfit S_U).
          const int s_count =
              std::min(config_.batch_size, support.pair_count);
          std::vector<int> s_batch =
              rng.SampleWithoutReplacement(support.pair_count, s_count);
          const nn::Tensor h_s = nn::SelectRows(support.matrix, s_batch);
          std::vector<float> s_labels(s_count);
          for (int i = 0; i < s_count; ++i) {
            s_labels[i] = support.labels[s_batch[i]];
          }
          const AdamelModel::Output support_out = model->Forward(h_s);
          std::vector<float> weights(s_count, 1.0f);
          if (config_.support_deviation_weights) {
            weights = SupportWeights(support_out.attention.Detach(),
                                     s_labels, centroids);
          }
          nn::Tensor support_loss =
              nn::BceWithLogits(support_out.logits, s_labels, weights);
          // Mixing rule: kFew uses Eq. (13), L_base + phi * L_support. For
          // kHyb, Eq. (14) as printed would keep L_support at full strength
          // when lambda -> 1, but the paper's own Figure 8 discussion states
          // that at lambda = 1 "the only term in the loss function is the
          // regularization" for AdaMEL-hyb as well — so the supervised pair
          // (L_base + phi * L_support) must jointly carry the (1 - lambda)
          // factor. We follow that reading:
          //   L_hyb = (1-lambda) * (L_base + phi * L_support)
          //           + lambda * L_target.
          const float support_weight = config_.phi * base_weight;
          loss = nn::Add(loss, nn::MulScalar(support_loss, support_weight));
          stats.support_loss += support_loss.At(0, 0);
          ++support_steps;
          ADAMEL_COUNTER_ADD("train.support_steps", 1);
#if ADAMEL_TELEMETRY_ENABLED
          alpha_entropy_sum += AttentionEntropy(support_out.attention);
#endif
        }
      }

      // The loss must be a defined scalar before reverse mode runs; a shaped
      // loss here means an op above dropped a reduction.
      ADAMEL_DCHECK_EQ(loss.size(), 1);
      nn::GradClipResult clip{};
      {
        // ZeroGrad is charged to the backward phase: it prepares the
        // gradient buffers the reverse sweep accumulates into.
        ADAMEL_PHASE_SCOPE(::adamel::obs::Phase::kBackward);
        ADAMEL_TRACE_SCOPE("train.backward");
        optimizer.ZeroGrad();
        loss.Backward();
      }
      {
        ADAMEL_PHASE_SCOPE(::adamel::obs::Phase::kOptimizer);
        ADAMEL_TRACE_SCOPE("train.optimizer");
        clip = nn::ClipGradNorm(optimizer.parameters(), config_.grad_clip);
        if (clip.finite) {
          optimizer.Step();
        } else {
          // A non-finite gradient norm means at least one gradient
          // overflowed; stepping would write NaN into every weight. Skip
          // this update and surface the skip in the epoch stats.
          ++stats.skipped_steps;
          ADAMEL_COUNTER_ADD("train.skipped_steps", 1);
        }
      }
      ADAMEL_COUNTER_ADD("train.steps", 1);
      if (clip.finite) {
        ADAMEL_GAUGE_SET("train.grad_norm", clip.norm);
#if ADAMEL_TELEMETRY_ENABLED
        grad_norm_sum += clip.norm;
#endif
      }
      stats.base_loss += base_loss.At(0, 0);
      ++batches;
    }
    if (batches > 0) {
      stats.base_loss /= batches;
      stats.target_loss /= batches;
      // L_support only exists on support steps; averaging over all batches
      // would understate it by a factor of support_every.
      if (support_steps > 0) {
        stats.support_loss /= support_steps;
      }
      full_history.push_back(stats);
      ADAMEL_COUNTER_ADD("train.epochs", 1);
      ADAMEL_GAUGE_SET("train.loss.base", stats.base_loss);
      ADAMEL_GAUGE_SET("train.loss.target", stats.target_loss);
      ADAMEL_GAUGE_SET("train.loss.support", stats.support_loss);
      ADAMEL_SERIES_APPEND("train.epoch.base_loss", stats.base_loss);
      ADAMEL_SERIES_APPEND("train.epoch.target_loss", stats.target_loss);
      ADAMEL_SERIES_APPEND("train.epoch.support_loss", stats.support_loss);
#if ADAMEL_TELEMETRY_ENABLED
      ADAMEL_SERIES_APPEND("train.epoch.grad_norm", grad_norm_sum / batches);
      if (support_steps > 0) {
        const double alpha_entropy = alpha_entropy_sum / support_steps;
        ADAMEL_GAUGE_SET("train.alpha_entropy", alpha_entropy);
        ADAMEL_SERIES_APPEND("train.epoch.alpha_entropy", alpha_entropy);
      }
#endif
    }
    if (checkpoint != nullptr) {
      const int epochs_done = epoch + 1;
      const bool final_epoch = epochs_done == config_.epochs;
      const bool interrupting =
          checkpoint->max_epochs_this_run > 0 &&
          epochs_done - start_epoch >= checkpoint->max_epochs_this_run;
      if (final_epoch || interrupting ||
          epochs_done % checkpoint->save_every == 0) {
        ADAMEL_RETURN_IF_ERROR(SaveTrainState(
            checkpoint->path, variant, config_, epochs_done, *model,
            optimizer, rng, permutation, full_history));
      }
      if (interrupting && !final_epoch) {
        break;
      }
    }
  }
  if (history != nullptr) {
    history->insert(history->end(), full_history.begin(), full_history.end());
  }
  return std::make_shared<TrainedAdamel>(std::move(extractor),
                                         std::move(model));
}

AdamelLinkage::AdamelLinkage(AdamelVariant variant, AdamelConfig config)
    : variant_(variant), trainer_(config) {}

std::string AdamelLinkage::Name() const {
  return AdamelVariantName(variant_);
}

Status AdamelLinkage::Fit(const MelInputs& inputs) {
  const bool need_target = variant_ == AdamelVariant::kZero ||
                           variant_ == AdamelVariant::kHyb;
  const bool need_support = variant_ == AdamelVariant::kFew ||
                            variant_ == AdamelVariant::kHyb;
  ADAMEL_RETURN_IF_ERROR(
      ValidateMelInputs(inputs, need_target, need_support));
  trained_ = std::make_unique<TrainedAdamel>(trainer_.Fit(variant_, inputs));
  return OkStatus();
}

StatusOr<std::vector<float>> AdamelLinkage::ScorePairs(
    data::PairSpan batch) const {
  if (trained_ == nullptr) {
    return FailedPreconditionError(Name() + ": ScorePairs before Fit");
  }
  return trained_->ScorePairs(batch);
}

int64_t AdamelLinkage::ParameterCount() const {
  ADAMEL_CHECK(trained_ != nullptr) << "ParameterCount before Fit";
  return trained_->ParameterCount();
}

Status AdamelLinkage::SaveCheckpoint(const std::string& path) const {
  if (trained_ == nullptr) {
    return FailedPreconditionError("SaveCheckpoint before Fit");
  }
  return trained_->SaveToFile(path);
}

Status AdamelLinkage::LoadCheckpoint(const std::string& path) {
  StatusOr<std::shared_ptr<TrainedAdamel>> loaded =
      TrainedAdamel::LoadFromFile(path);
  if (!loaded.ok()) {
    return loaded.status();
  }
  trained_ = std::make_unique<TrainedAdamel>(*loaded.value());
  return OkStatus();
}

bool AdamelLinkage::SupportsQuantizedScoring() const {
  return trained_ != nullptr && trained_->HasQuantized();
}

StatusOr<std::vector<float>> AdamelLinkage::ScorePairsQuantized(
    data::PairSpan batch) const {
  if (trained_ == nullptr) {
    return FailedPreconditionError(Name() +
                                   ": ScorePairsQuantized before Fit");
  }
  return trained_->ScorePairsQuantized(batch);
}

Status AdamelLinkage::EnableQuantizedScoring(data::PairSpan calibration) {
  if (trained_ == nullptr) {
    return FailedPreconditionError(Name() +
                                   ": EnableQuantizedScoring before Fit");
  }
  return trained_->EnableQuantizedScoring(calibration);
}

const TrainedAdamel& AdamelLinkage::trained() const {
  ADAMEL_CHECK(trained_ != nullptr);
  return *trained_;
}

}  // namespace adamel::core
