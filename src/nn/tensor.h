#ifndef ADAMEL_NN_TENSOR_H_
#define ADAMEL_NN_TENSOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/debug_checks.h"

namespace adamel::nn {

/// Internal node of the autograd graph. Exposed only so that `Tensor` can be
/// a cheap value type; user code interacts with `Tensor`.
struct TensorImpl {
  TensorImpl() { debug::internal::NodeCreated(); }
  ~TensorImpl() { debug::internal::NodeDestroyed(); }
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  int rows = 0;
  int cols = 0;
  std::vector<float> data;
  std::vector<float> grad;  // sized lazily on first accumulation
  bool requires_grad = false;

  // Set once this node's backward_fn has run. Graphs are single-use; the
  // debug-checks build turns a second Backward() through the same node into
  // a fatal error instead of silently double-accumulating gradients.
  bool backward_consumed = false;

  // Parents in the compute graph and the function that routes this node's
  // gradient to them. Empty for leaves.
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void(TensorImpl&)> backward_fn;

  int size() const { return rows * cols; }
  void EnsureGrad() {
    if (grad.size() != data.size()) {
      grad.assign(data.size(), 0.0f);
    }
  }
};

/// A dense float matrix with reverse-mode automatic differentiation.
///
/// `Tensor` is a shared handle (copying a `Tensor` aliases the same storage
/// and graph node). All tensors are 2-D row-major; scalars are 1x1 and
/// vectors are 1xC or Rx1. Operations are defined in `nn/ops.h` and build a
/// dynamic compute graph when any input has `requires_grad()`. Calling
/// `Backward()` on a scalar result accumulates gradients into every reachable
/// leaf. Graphs are single-use: recompute the forward pass before each
/// backward pass (as the training loops in this library do).
class Tensor {
 public:
  /// Constructs an undefined tensor; `defined()` is false.
  Tensor() = default;

  // -- Factories ------------------------------------------------------------

  /// Returns a rows x cols tensor filled with zeros.
  static Tensor Zeros(int rows, int cols, bool requires_grad = false);

  /// Returns a rows x cols tensor filled with `value`.
  static Tensor Full(int rows, int cols, float value,
                     bool requires_grad = false);

  /// Returns a 1x1 tensor holding `value`.
  static Tensor Scalar(float value);

  /// Wraps the given row-major values (size must be rows*cols).
  static Tensor FromVector(int rows, int cols, std::vector<float> values,
                           bool requires_grad = false);

  /// Returns a rows x cols tensor of N(0, stddev^2) samples.
  static Tensor RandomNormal(int rows, int cols, float stddev, Rng* rng,
                             bool requires_grad = false);

  /// Glorot/Xavier-uniform initialization for a weight matrix of shape
  /// fan_in x fan_out: U(-s, s) with s = sqrt(6 / (fan_in + fan_out)).
  static Tensor XavierUniform(int fan_in, int fan_out, Rng* rng,
                              bool requires_grad = true);

  // -- Shape and element access ----------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  int rows() const;
  int cols() const;
  int size() const;

  float At(int row, int col) const;
  void Set(int row, int col, float value);

  const std::vector<float>& data() const;
  std::vector<float>& mutable_data();

  /// Gradient accumulated by the last `Backward()`; zeros if none ran.
  const std::vector<float>& grad() const;
  float GradAt(int row, int col) const;

  bool requires_grad() const;

  /// Returns a copy of the values detached from the autograd graph.
  Tensor Detach() const;

  /// Copies the values as a flat row-major vector.
  std::vector<float> ToVector() const;

  /// Zeroes this tensor's gradient buffer.
  void ZeroGrad();

  /// Runs reverse-mode differentiation from this tensor, which must be a
  /// defined 1x1 scalar. Gradients accumulate (+=) into every leaf reachable
  /// from this node that has `requires_grad()`.
  void Backward();

  /// Renders shape and values, e.g. for test failure messages.
  std::string DebugString() const;

  /// Access to the underlying node; used by the op implementations.
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}
  friend Tensor MakeFromImpl(std::shared_ptr<TensorImpl> impl);

  std::shared_ptr<TensorImpl> impl_;
};

/// Wraps an impl node in a `Tensor` handle (for op implementations).
Tensor MakeFromImpl(std::shared_ptr<TensorImpl> impl);

}  // namespace adamel::nn

#endif  // ADAMEL_NN_TENSOR_H_
