#include "nn/optim.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "obs/telemetry.h"

namespace adamel::nn {
namespace {

// Serializes one per-parameter float buffer list (velocity, moments).
void WriteBuffers(const std::vector<std::vector<float>>& buffers,
                  BlobWriter* writer) {
  writer->WriteU32(static_cast<uint32_t>(buffers.size()));
  for (const std::vector<float>& buffer : buffers) {
    writer->WriteFloats(buffer);
  }
}

// Reads buffers written by `WriteBuffers` into `targets`, validating that
// the stored sizes match the current parameter list element-for-element.
Status ReadBuffersInto(BlobReader* reader,
                       std::vector<std::vector<float>>* targets) {
  uint32_t count = 0;
  ADAMEL_RETURN_IF_ERROR(reader->ReadU32(&count));
  if (count != targets->size()) {
    return FailedPreconditionError(
        "optimizer state holds " + std::to_string(count) +
        " buffers, expected " + std::to_string(targets->size()));
  }
  std::vector<std::vector<float>> loaded(count);
  for (uint32_t i = 0; i < count; ++i) {
    ADAMEL_RETURN_IF_ERROR(reader->ReadFloats(&loaded[i]));
    if (loaded[i].size() != (*targets)[i].size()) {
      return FailedPreconditionError(
          "optimizer buffer " + std::to_string(i) + " holds " +
          std::to_string(loaded[i].size()) + " values, expected " +
          std::to_string((*targets)[i].size()));
    }
  }
  *targets = std::move(loaded);
  return OkStatus();
}

}  // namespace

Optimizer::Optimizer(std::vector<Tensor> parameters)
    : parameters_(std::move(parameters)) {
  for (const Tensor& p : parameters_) {
    ADAMEL_CHECK(p.defined());
    ADAMEL_CHECK(p.requires_grad()) << "optimizing a frozen tensor";
  }
}

void Optimizer::ZeroGrad() {
  for (Tensor& p : parameters_) {
    p.ZeroGrad();
  }
}

Sgd::Sgd(std::vector<Tensor> parameters, float learning_rate, float momentum)
    : Optimizer(std::move(parameters)),
      learning_rate_(learning_rate),
      momentum_(momentum) {
  velocity_.resize(parameters_.size());
  for (size_t i = 0; i < parameters_.size(); ++i) {
    velocity_[i].assign(parameters_[i].size(), 0.0f);
  }
}

void Sgd::SaveState(BlobWriter* writer) const {
  WriteBuffers(velocity_, writer);
}

Status Sgd::LoadState(BlobReader* reader) {
  return ReadBuffersInto(reader, &velocity_);
}

void Sgd::Step() {
  for (size_t i = 0; i < parameters_.size(); ++i) {
    Tensor& p = parameters_[i];
    const std::vector<float>& g = p.grad();
    std::vector<float>& v = velocity_[i];
    std::vector<float>& w = p.mutable_data();
    for (size_t j = 0; j < w.size(); ++j) {
      v[j] = momentum_ * v[j] + g[j];
      w[j] -= learning_rate_ * v[j];
    }
  }
}

Adam::Adam(std::vector<Tensor> parameters, float learning_rate, float beta1,
           float beta2, float epsilon, float weight_decay)
    : Optimizer(std::move(parameters)),
      learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  first_moment_.resize(parameters_.size());
  second_moment_.resize(parameters_.size());
  for (size_t i = 0; i < parameters_.size(); ++i) {
    first_moment_[i].assign(parameters_[i].size(), 0.0f);
    second_moment_[i].assign(parameters_[i].size(), 0.0f);
  }
}

void Adam::SaveState(BlobWriter* writer) const {
  writer->WriteI64(step_count_);
  WriteBuffers(first_moment_, writer);
  WriteBuffers(second_moment_, writer);
}

Status Adam::LoadState(BlobReader* reader) {
  int64_t step_count = 0;
  ADAMEL_RETURN_IF_ERROR(reader->ReadI64(&step_count));
  if (step_count < 0) {
    return InvalidArgumentError("negative Adam step count");
  }
  // Load into scratch copies first so a failure leaves this optimizer
  // untouched.
  std::vector<std::vector<float>> first = first_moment_;
  std::vector<std::vector<float>> second = second_moment_;
  ADAMEL_RETURN_IF_ERROR(ReadBuffersInto(reader, &first));
  ADAMEL_RETURN_IF_ERROR(ReadBuffersInto(reader, &second));
  step_count_ = step_count;
  first_moment_ = std::move(first);
  second_moment_ = std::move(second);
  return OkStatus();
}

void Adam::Step() {
  ++step_count_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  for (size_t i = 0; i < parameters_.size(); ++i) {
    Tensor& p = parameters_[i];
    const std::vector<float>& g = p.grad();
    std::vector<float>& m = first_moment_[i];
    std::vector<float>& v = second_moment_[i];
    std::vector<float>& w = p.mutable_data();
    for (size_t j = 0; j < w.size(); ++j) {
      float grad = g[j];
      if (weight_decay_ != 0.0f) {
        grad += weight_decay_ * w[j];
      }
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * grad;
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * grad * grad;
      const float m_hat = m[j] / bias1;
      const float v_hat = v[j] / bias2;
      w[j] -= learning_rate_ * m_hat / (std::sqrt(v_hat) + epsilon_);
    }
  }
}

GradClipResult ClipGradNorm(const std::vector<Tensor>& parameters,
                            float max_norm) {
  ADAMEL_CHECK_GT(max_norm, 0.0f);
  double total_sq = 0.0;
  for (const Tensor& p : parameters) {
    for (float g : p.grad()) {
      total_sq += static_cast<double>(g) * g;
    }
  }
  const float norm = static_cast<float>(std::sqrt(total_sq));
  if (!std::isfinite(norm)) {
    // A NaN/Inf gradient would make `scale` non-finite and the multiply
    // below would overwrite every gradient with NaN — one bad batch would
    // silently poison all weights on the next Step(). Leave the gradients
    // as they are and tell the caller so it can skip this update.
    return {norm, /*finite=*/false};
  }
  if (norm > max_norm) {
    const float scale = max_norm / (norm + 1e-12f);
    for (const Tensor& p : parameters) {
      // grad() ensures the buffer exists; scale in place via const_cast-free
      // access by re-fetching through a mutable handle.
      Tensor handle = p;
      auto& impl = *handle.impl();
      for (float& g : impl.grad) {
        g *= scale;
      }
    }
  }
  return {norm, /*finite=*/true};
}

EpochSteps TrainEpoch(Optimizer* optimizer, const std::vector<int>& order,
                      int batch_size, float grad_clip,
                      const BatchLossFn& batch_loss) {
  ADAMEL_CHECK_GT(batch_size, 0);
  EpochSteps result;
  const size_t n = order.size();
  for (size_t start = 0; start < n; start += batch_size) {
    const size_t end = std::min(n, start + static_cast<size_t>(batch_size));
    Tensor loss;
    {
      ADAMEL_PHASE_SCOPE(::adamel::obs::Phase::kForward);
      ADAMEL_TRACE_SCOPE("train.forward");
      const std::vector<int> rows(order.begin() + start, order.begin() + end);
      loss = batch_loss(result.steps, rows);
    }
    // The loss must be a defined scalar before reverse mode runs; a shaped
    // loss here means an op in the callback dropped a reduction.
    ADAMEL_DCHECK_EQ(loss.size(), 1);
    {
      // ZeroGrad is charged to the backward phase: it prepares the
      // gradient buffers the reverse sweep accumulates into.
      ADAMEL_PHASE_SCOPE(::adamel::obs::Phase::kBackward);
      ADAMEL_TRACE_SCOPE("train.backward");
      optimizer->ZeroGrad();
      loss.Backward();
    }
    GradClipResult clip;
    {
      ADAMEL_PHASE_SCOPE(::adamel::obs::Phase::kOptimizer);
      ADAMEL_TRACE_SCOPE("train.optimizer");
      clip = ClipGradNorm(optimizer->parameters(), grad_clip);
      if (clip.finite) {
        optimizer->Step();
      } else {
        // A non-finite norm means at least one gradient overflowed;
        // stepping would write NaN into every weight.
        ++result.skipped_steps;
        ADAMEL_COUNTER_ADD("train.skipped_steps", 1);
      }
    }
    ADAMEL_COUNTER_ADD("train.steps", 1);
    if (clip.finite) {
      ADAMEL_GAUGE_SET("train.grad_norm", clip.norm);
      result.grad_norm_sum += clip.norm;
    }
    ++result.steps;
  }
  return result;
}

}  // namespace adamel::nn
