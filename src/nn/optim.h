#ifndef ADAMEL_NN_OPTIM_H_
#define ADAMEL_NN_OPTIM_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "nn/serialize.h"
#include "nn/tensor.h"

namespace adamel::nn {

/// Base class for gradient-descent optimizers over a fixed parameter list.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> parameters);
  virtual ~Optimizer() = default;

  /// Applies one update using the gradients currently stored on the
  /// parameters (as produced by `Tensor::Backward()`).
  virtual void Step() = 0;

  /// Zeroes all parameter gradients; call before each forward/backward pass.
  void ZeroGrad();

  /// Serializes the optimizer's internal state (moment buffers, step count —
  /// not the parameters themselves) so training can resume bitwise
  /// identically after a restart.
  virtual void SaveState(BlobWriter* writer) const = 0;

  /// Restores state written by `SaveState`. Fails (without modifying this
  /// optimizer) when the stored buffers do not match the parameter list.
  virtual Status LoadState(BlobReader* reader) = 0;

  const std::vector<Tensor>& parameters() const { return parameters_; }

 protected:
  std::vector<Tensor> parameters_;
};

/// Stochastic gradient descent with optional momentum.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Tensor> parameters, float learning_rate,
      float momentum = 0.0f);

  void Step() override;

  void SaveState(BlobWriter* writer) const override;
  Status LoadState(BlobReader* reader) override;

 private:
  float learning_rate_;
  float momentum_;
  std::vector<std::vector<float>> velocity_;
};

/// Adam (Kingma & Ba, 2014) — the optimizer the paper trains AdaMEL with
/// (Section 5.1: Adam, lr = 1e-4).
class Adam : public Optimizer {
 public:
  Adam(std::vector<Tensor> parameters, float learning_rate = 1e-4f,
       float beta1 = 0.9f, float beta2 = 0.999f, float epsilon = 1e-8f,
       float weight_decay = 0.0f);

  void Step() override;

  void SaveState(BlobWriter* writer) const override;
  Status LoadState(BlobReader* reader) override;

  int64_t step_count() const { return step_count_; }

 private:
  float learning_rate_;
  float beta1_;
  float beta2_;
  float epsilon_;
  float weight_decay_;
  int64_t step_count_ = 0;
  std::vector<std::vector<float>> first_moment_;
  std::vector<std::vector<float>> second_moment_;
};

/// Outcome of `ClipGradNorm`.
struct GradClipResult {
  /// Global pre-clip L2 norm over all gradients (NaN/Inf when not finite).
  float norm = 0.0f;
  /// False when the norm is NaN or Inf. In that case no scaling was applied
  /// — scaling by `max_norm / norm` would write NaN into every gradient —
  /// and the caller should skip the optimizer step.
  bool finite = true;
};

/// Clips each parameter's gradient so that the global L2 norm over all
/// parameters is at most `max_norm`. When any gradient is non-finite the
/// gradients are left untouched and `finite` is false so the caller can
/// skip the update instead of poisoning the weights.
GradClipResult ClipGradNorm(const std::vector<Tensor>& parameters,
                            float max_norm);

/// Outcome of one `TrainEpoch` call.
struct EpochSteps {
  /// Batches run, stepped or skipped.
  int steps = 0;
  /// Batches whose gradient norm was NaN/Inf, so the update was skipped.
  int skipped_steps = 0;
  /// Sum of the finite pre-clip gradient norms.
  double grad_norm_sum = 0.0;
};

/// Builds one mini-batch's scalar loss. `batch_index` counts batches from 0
/// within the epoch; `rows` is the batch's contiguous slice of `order`.
using BatchLossFn =
    std::function<Tensor(int batch_index, const std::vector<int>& rows)>;

/// The mini-batch step loop every gradient trainer shares. Cuts `order`
/// (already shuffled by the caller) into contiguous batches of
/// `batch_size`, the last one possibly partial, and for each batch runs
/// `batch_loss` → `ZeroGrad` → `Backward` → `ClipGradNorm(grad_clip)` →
/// `Step`. A batch whose gradient norm is non-finite is not stepped, so it
/// leaves every parameter unchanged. Charges the three stages to the
/// forward / backward / optimizer phases and the `train.forward`,
/// `train.backward` and `train.optimizer` timers, and counts `train.steps`
/// and `train.skipped_steps`.
EpochSteps TrainEpoch(Optimizer* optimizer, const std::vector<int>& order,
                      int batch_size, float grad_clip,
                      const BatchLossFn& batch_loss);

}  // namespace adamel::nn

#endif  // ADAMEL_NN_OPTIM_H_
