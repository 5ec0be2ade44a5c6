#ifndef ADAMEL_CORE_INFERENCE_H_
#define ADAMEL_CORE_INFERENCE_H_

// The AdaMEL inference forward (Eq. 4-7), written once and without an
// autograd graph.
//
// fp32 serving (`TrainedAdamel::ScorePairs`, `AttentionVectors`), int8
// scoring (`QuantizedAdamelModel::Score`) and int8 calibration all call
// `RunForward`. Only the four weight-GEMM families depend on precision, and
// a `ForwardGemms` supplies them:
//  - `PackedAdamel`: fp32, the frozen model's weights packed once;
//  - `QuantizedAdamelModel`: int8 weights and calibrated activation scales;
//  - calibration: `PackedAdamel` behind an observer that records the
//    max-abs of each int8 GEMM's input (core/quantized_model.cc).
//
// Every other step does what nn/ops.cc does inside AdamelModel::Forward, in
// the same order: the bias added after the GEMM, the `relu` kernel,
// std::tanh, the dot with the attention vector `a` as a packed fp32 GEMM,
// softmax with std::exp and a double denominator, and the branchy libm
// sigmoid. So with `PackedAdamel` the scores are bitwise equal to
// Sigmoid(AdamelModel::Forward(h).logits) and the attention rows to
// ForwardAttention(h), on every kernel backend and at any thread count.
// Each output row depends only on its own row of `h`, so results do not
// depend on how rows are batched.

#include <iterator>
#include <utility>
#include <vector>

#include "core/model.h"
#include "nn/serialize.h"
#include "nn/tensor.h"

namespace adamel::core {

/// The forward's four weight-GEMM families.
enum class GemmFamily {
  kProjection = 0,   // Eq. 4: V_j, one per feature
  kAttention = 1,    // Eq. 5: W, shared by all features
  kClassifier0 = 2,  // Eq. 7: Theta's hidden layer
  kClassifier1 = 3,  // Eq. 7: Theta's logit layer
};

/// The three families with a single GEMM, in storage order.
inline constexpr GemmFamily kSharedGemms[] = {
    GemmFamily::kAttention, GemmFamily::kClassifier0,
    GemmFamily::kClassifier1};

/// Shapes and the fp32 vectors every precision shares: the biases and the
/// attention vector `a`.
struct ForwardParams {
  int feature_count = 0;
  int embed_dim = 0;
  int latent_dim = 0;
  int attention_dim = 0;
  int hidden_dim = 0;
  std::vector<std::vector<float>> projection_bias;  // per feature
  std::vector<float> attention_a;
  std::vector<float> attention_a_packed;  // attention_a as a packed k x 1 B
  std::vector<float> classifier0_bias;
  std::vector<float> classifier1_bias;

  /// (k, n) of `family`'s weight: its GEMM is (m x k) * (k x n).
  std::pair<int, int> GemmShape(GemmFamily family) const;

  /// The forward's weight GEMMs are stored in one array of gemm_count():
  /// the feature_count projections, then kSharedGemms. GemmIndex is the
  /// position of `family`'s GEMM (feature `feature`'s for kProjection).
  int gemm_count() const {
    return feature_count + static_cast<int>(std::size(kSharedGemms));
  }
  int GemmIndex(GemmFamily family, int feature) const {
    return family == GemmFamily::kProjection
               ? feature
               : feature_count + static_cast<int>(family) - 1;
  }
};

/// `family`'s weight (feature `feature`'s for kProjection) in an
/// AdamelModel's NamedParameters.
const nn::Tensor& ForwardWeight(const std::vector<nn::NamedTensor>& params,
                                GemmFamily family, int feature);

/// The precision-dependent step of the forward: c (m x n) = a (m x k) times
/// `family`'s weight (feature `feature`'s for kProjection), with no bias.
class ForwardGemms {
 public:
  virtual void Gemm(GemmFamily family, int feature, const float* a, int m,
                    float* c) const = 0;
};

/// Runs Eq. 4-7 over `rows` (>= 1) rows of `h`
/// (rows x feature_count*embed_dim). Writes match probabilities to `scores`
/// (rows) and the attention rows f(x) to `attention`
/// (rows x feature_count). Either may be null; a null `scores` skips Eq. 7.
void RunForward(const ForwardParams& params, const ForwardGemms& gemms,
                const float* h, int rows, float* scores, float* attention);

/// The fp32 weights of a frozen AdamelModel, packed once for RunForward.
/// Immutable, so serving threads may share one.
class PackedAdamel final : public ForwardGemms {
 public:
  explicit PackedAdamel(const AdamelModel& model);

  void Gemm(GemmFamily family, int feature, const float* a, int m,
            float* c) const override;

  const ForwardParams& params() const { return params_; }

 private:
  ForwardParams params_;
  std::vector<std::vector<float>> packed_;  // by ForwardParams::GemmIndex
};

}  // namespace adamel::core

#endif  // ADAMEL_CORE_INFERENCE_H_
