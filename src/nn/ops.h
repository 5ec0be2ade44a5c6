#ifndef ADAMEL_NN_OPS_H_
#define ADAMEL_NN_OPS_H_

#include <vector>

#include "nn/tensor.h"

namespace adamel::nn {

// Elementwise binary operations with NumPy-style 2-D broadcasting: each
// dimension of the two operands must match or be 1. Gradients are reduced
// (summed) over broadcast dimensions.

/// Returns a + b (broadcasting).
Tensor Add(const Tensor& a, const Tensor& b);
/// Returns a - b (broadcasting).
Tensor Sub(const Tensor& a, const Tensor& b);
/// Returns a * b elementwise (broadcasting).
Tensor Mul(const Tensor& a, const Tensor& b);
/// Returns a / b elementwise (broadcasting). Division by zero is the
/// caller's responsibility (use Clip or add an epsilon).
Tensor Div(const Tensor& a, const Tensor& b);

/// Returns a + value applied elementwise.
Tensor AddScalar(const Tensor& a, float value);
/// Returns a * value applied elementwise.
Tensor MulScalar(const Tensor& a, float value);

// Elementwise unary operations.

/// Returns max(a, 0).
Tensor Relu(const Tensor& a);
/// Returns tanh(a).
Tensor Tanh(const Tensor& a);
/// Returns 1 / (1 + exp(-a)).
Tensor Sigmoid(const Tensor& a);
/// Returns exp(a).
Tensor Exp(const Tensor& a);
/// Returns log(a); inputs must be positive.
Tensor Log(const Tensor& a);
/// Returns sqrt(a); inputs must be non-negative.
Tensor Sqrt(const Tensor& a);
/// Returns a^2 elementwise.
Tensor Square(const Tensor& a);
/// Clamps values into [lo, hi]. The gradient is passed through inside the
/// range and zeroed outside (like torch.clamp).
Tensor Clip(const Tensor& a, float lo, float hi);

// Linear algebra.

/// Matrix product of a (RxK) and b (KxC) -> RxC.
Tensor MatMul(const Tensor& a, const Tensor& b);
/// Transpose (RxC -> CxR).
Tensor Transpose(const Tensor& a);

/// Graph-free MatMul forward on raw buffers: c (m x n) = a (m x k) * B,
/// with B already packed by kernels::PackPanelsF32. It runs the same
/// kernel, row split and nn.gemm.* counters as MatMul, so it is bitwise
/// equal to MatMul; frozen inference weights are packed once for it.
void MatMulPacked(const float* a, int m, int k, const float* packed_b, int n,
                  float* c);

// Shape manipulation.

/// Horizontally concatenates tensors with equal row counts.
Tensor ConcatCols(const std::vector<Tensor>& parts);
/// Vertically concatenates tensors with equal column counts.
Tensor ConcatRows(const std::vector<Tensor>& parts);
/// Returns columns [start, start+count) of a.
Tensor SliceCols(const Tensor& a, int start, int count);
/// Returns rows [start, start+count) of a.
Tensor SliceRows(const Tensor& a, int start, int count);
/// Gathers the given rows of a in order (rows may repeat).
Tensor SelectRows(const Tensor& a, const std::vector<int>& indices);
/// Reshapes a to rows x cols (same total size), keeping row-major order.
Tensor Reshape(const Tensor& a, int rows, int cols);

// Reductions.

/// Sum of all elements -> 1x1.
Tensor Sum(const Tensor& a);
/// Mean of all elements -> 1x1.
Tensor Mean(const Tensor& a);
/// Row sums: RxC -> Rx1.
Tensor SumRows(const Tensor& a);
/// Column sums: RxC -> 1xC.
Tensor SumCols(const Tensor& a);
/// Column means: RxC -> 1xC.
Tensor MeanCols(const Tensor& a);

// Neural-net specific operations.

/// Row-wise softmax (numerically stabilized by row-max subtraction).
Tensor Softmax(const Tensor& a);

/// Numerically stable binary cross-entropy on logits.
///
/// `logits` is Rx1, `targets` has R entries in {0,1} (soft targets allowed),
/// and `weights` (optional, empty = all ones) gives per-example weights as in
/// Eq. (12) of the paper. Returns the weighted mean loss as 1x1.
Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& targets,
                     const std::vector<float>& weights = {});

/// KL(p || q) where `p` is a fixed reference distribution (1xF, detached —
/// no gradient flows to it) and each row of `q` (RxF) is a distribution.
/// Returns the sum over rows as 1x1: sum_i sum_j p_j log(p_j / q_ij).
/// This is Eq. (10) of the paper with p = mean target-domain attention.
Tensor RowKlDivergence(const std::vector<float>& p, const Tensor& q);

}  // namespace adamel::nn

#endif  // ADAMEL_NN_OPS_H_
