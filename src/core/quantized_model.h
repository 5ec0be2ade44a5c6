#ifndef ADAMEL_CORE_QUANTIZED_MODEL_H_
#define ADAMEL_CORE_QUANTIZED_MODEL_H_

// Int8-quantized serving twin of AdamelModel.
//
// Built offline from a trained model plus a calibration batch: weights get
// symmetric per-tensor int8 scales from their trained values, activations
// get scales from one fp32 run of the shared forward (core/inference.h)
// whose GEMMs record the max-abs of every int8 GEMM's input. Scoring runs
// that same forward with the four GEMM families (per-feature projections,
// attention W, both classifier layers) in int8 with int32 accumulation;
// every other step, libm transcendentals included, is the fp32 forward's.
// So quantized scores are bitwise identical on every kernel backend and at
// any thread count, while accuracy is bounded end to end by the
// golden-metrics 2% bands rather than bitwise parity with the fp32 path.
//
// This type is inference-only and immutable after Build/Load; serving
// threads may Score concurrently.

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/inference.h"
#include "core/model.h"
#include "nn/quantize.h"
#include "nn/serialize.h"

namespace adamel::core {

class QuantizedAdamelModel final : private ForwardGemms {
 public:
  /// Quantizes `model` and calibrates activation scales on `calibration`
  /// (`rows` x feature_count*embed_dim, row-major — a featurized pair
  /// batch). Fails if `rows` < 1.
  static StatusOr<std::shared_ptr<const QuantizedAdamelModel>> Build(
      const AdamelModel& model, const float* calibration, int rows);

  /// Writes sigmoid match scores for `h` (`rows` x feature_count*embed_dim)
  /// to `scores` (`rows`).
  void Score(const float* h, int rows, float* scores) const;

  /// Serializes scales + int8 weights (row-major, so the packed kernel
  /// layout can evolve without a format break).
  void Save(nn::BlobWriter* writer) const;

  /// Reconstructs a model written by `Save`.
  static StatusOr<std::shared_ptr<const QuantizedAdamelModel>> Load(
      nn::BlobReader* reader);

  /// Width of the featurized rows Score reads: feature_count*embed_dim.
  int input_cols() const { return params_.feature_count * params_.embed_dim; }

 private:
  // One int8 GEMM of the forward: its weight and the calibrated scale of
  // its input.
  struct Site {
    nn::QuantizedGemmB w;
    float in_scale = 0.0f;
  };

  QuantizedAdamelModel() = default;

  void Gemm(GemmFamily family, int feature, const float* a, int m,
            float* c) const override;

  // Biases and the attention vector `a` stay fp32.
  ForwardParams params_;
  std::vector<Site> sites_;  // by ForwardParams::GemmIndex
};

}  // namespace adamel::core

#endif  // ADAMEL_CORE_QUANTIZED_MODEL_H_
