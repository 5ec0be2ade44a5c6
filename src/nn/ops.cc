#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "nn/debug_checks.h"
#include "nn/kernels/kernels.h"
#include "obs/telemetry.h"

namespace adamel::nn {
namespace {

// -- Parallelism thresholds ---------------------------------------------------
//
// All grains and thresholds are pure functions of tensor shape, never of the
// thread count, so the fixed chunking of common/parallel.h keeps every op
// bitwise deterministic at any ADAMEL_NUM_THREADS setting.

// Elementwise work below this many elements is not worth a pool dispatch.
constexpr int64_t kElemwiseParallelMin = 1 << 14;
// Target elements per elementwise chunk.
constexpr int64_t kElemwiseGrain = 1 << 12;
// MatMuls below this many multiply-adds never fan out to the pool. The
// model's per-feature GEMMs (latent 16..64, a few hundred rows) sit well
// under this: at those shapes a pool dispatch on an oversubscribed core
// costs more than the multiply itself (the train_epoch_hyb 2-thread
// regression in BENCH_parallel.json came from exactly these small GEMMs
// fanning out).
constexpr int64_t kGemmSerialFlops = 1 << 18;
// Target multiply-adds per GEMM row chunk once a GEMM is big enough to
// split. Matches kGemmSerialFlops so a GEMM just past the serial threshold
// splits into ~2 chunks, not dozens of tiny ones.
constexpr int64_t kGemmGrainFlops = 1 << 18;

inline int64_t RowGrain(int64_t cols_per_row, int64_t target) {
  return std::max<int64_t>(1, target / std::max<int64_t>(1, cols_per_row));
}

std::shared_ptr<TensorImpl> NewResult(int rows, int cols) {
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->data.assign(static_cast<size_t>(rows) * cols, 0.0f);
  return impl;
}

// Screens the finished output under ADAMEL_DEBUG_CHECKS (post-op NaN/Inf
// detection with origin reporting), then wraps it in a Tensor handle.
// `inputs` are the op's direct data inputs. Both helpers compile to a plain
// MakeFromImpl in the default build.
Tensor FinishOp(const char* op, std::shared_ptr<TensorImpl> out,
                std::initializer_list<const TensorImpl*> inputs) {
  debug::internal::ScreenOp(op, *out, inputs.begin(), inputs.size());
  return MakeFromImpl(std::move(out));
}

Tensor FinishOpMulti([[maybe_unused]] const char* op,
                     std::shared_ptr<TensorImpl> out,
                     [[maybe_unused]] const std::vector<
                         std::shared_ptr<TensorImpl>>& inputs) {
#ifdef ADAMEL_DEBUG_CHECKS
  std::vector<const TensorImpl*> raw;
  raw.reserve(inputs.size());
  for (const auto& input : inputs) {
    raw.push_back(input.get());
  }
  debug::internal::ScreenOp(op, *out, raw.data(), raw.size());
#endif
  return MakeFromImpl(std::move(out));
}

bool AnyRequiresGrad(const std::vector<std::shared_ptr<TensorImpl>>& inputs) {
  for (const auto& input : inputs) {
    if (input->requires_grad) {
      return true;
    }
  }
  return false;
}

// Attaches graph edges when any input requires a gradient.
void AttachBackward(const std::shared_ptr<TensorImpl>& out,
                    std::vector<std::shared_ptr<TensorImpl>> inputs,
                    std::function<void(TensorImpl&)> backward_fn) {
  if (!AnyRequiresGrad(inputs)) {
    return;
  }
  out->requires_grad = true;
  out->parents = std::move(inputs);
  out->backward_fn = std::move(backward_fn);
}

// Validates broadcast compatibility and returns the output shape.
std::pair<int, int> BroadcastShape(const TensorImpl& a, const TensorImpl& b) {
  ADAMEL_CHECK(a.rows == b.rows || a.rows == 1 || b.rows == 1)
      << "incompatible rows " << a.rows << " vs " << b.rows;
  ADAMEL_CHECK(a.cols == b.cols || a.cols == 1 || b.cols == 1)
      << "incompatible cols " << a.cols << " vs " << b.cols;
  return {std::max(a.rows, b.rows), std::max(a.cols, b.cols)};
}

inline size_t BroadcastIndex(const TensorImpl& t, int r, int c) {
  const int tr = t.rows == 1 ? 0 : r;
  const int tc = t.cols == 1 ? 0 : c;
  return static_cast<size_t>(tr) * t.cols + tc;
}

// Generic elementwise binary op with broadcasting.
//
// `fwd(av, bv)` computes the output; `dfda(av, bv)` and `dfdb(av, bv)` give
// the local partial derivatives, multiplied by the upstream gradient and
// reduced over broadcast dimensions during the backward pass.
template <typename Fwd, typename Dfda, typename Dfdb>
Tensor BinaryOp(const char* op, const Tensor& a, const Tensor& b, Fwd fwd,
                Dfda dfda, Dfdb dfdb) {
  ADAMEL_CHECK(a.defined() && b.defined());
  const auto& ai = *a.impl();
  const auto& bi = *b.impl();
  const auto [rows, cols] = BroadcastShape(ai, bi);
  ADAMEL_COUNTER_ADD("nn.elemwise.calls", 1);
  ADAMEL_COUNTER_ADD("nn.elemwise.elems", static_cast<int64_t>(rows) * cols);
  auto out = NewResult(rows, cols);
  // Row-partitioned forward: every output row is written by exactly one
  // chunk, so the result is identical at any thread count.
  ParallelFor(
      0, rows,
      static_cast<int64_t>(rows) * cols >= kElemwiseParallelMin
          ? RowGrain(cols, kElemwiseGrain)
          : rows,
      [&](int64_t rb, int64_t re) {
        for (int r = static_cast<int>(rb); r < re; ++r) {
          for (int c = 0; c < cols; ++c) {
            out->data[static_cast<size_t>(r) * cols + c] =
                fwd(ai.data[BroadcastIndex(ai, r, c)],
                    bi.data[BroadcastIndex(bi, r, c)]);
          }
        }
      });
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  AttachBackward(out, {a_impl, b_impl},
                 [a_impl, b_impl, dfda, dfdb](TensorImpl& self) {
                   const int rows = self.rows;
                   const int cols = self.cols;
                   if (a_impl->requires_grad) {
                     a_impl->EnsureGrad();
                   }
                   if (b_impl->requires_grad) {
                     b_impl->EnsureGrad();
                   }
                   // Row-broadcast gradients accumulate into a single shared
                   // row, so row-partitioning is only safe when every
                   // grad-receiving input spans all output rows.
                   const bool row_partition_safe =
                       (!a_impl->requires_grad || a_impl->rows == rows) &&
                       (!b_impl->requires_grad || b_impl->rows == rows);
                   const int64_t grain =
                       row_partition_safe && static_cast<int64_t>(rows) *
                                                     cols >=
                                                 kElemwiseParallelMin
                           ? RowGrain(cols, kElemwiseGrain)
                           : rows;
                   ParallelFor(0, rows, grain, [&](int64_t rb, int64_t re) {
                     for (int r = static_cast<int>(rb); r < re; ++r) {
                       for (int c = 0; c < cols; ++c) {
                         const float g =
                             self.grad[static_cast<size_t>(r) * cols + c];
                         const float av =
                             a_impl->data[BroadcastIndex(*a_impl, r, c)];
                         const float bv =
                             b_impl->data[BroadcastIndex(*b_impl, r, c)];
                         if (a_impl->requires_grad) {
                           a_impl->grad[BroadcastIndex(*a_impl, r, c)] +=
                               g * dfda(av, bv);
                         }
                         if (b_impl->requires_grad) {
                           b_impl->grad[BroadcastIndex(*b_impl, r, c)] +=
                               g * dfdb(av, bv);
                         }
                       }
                     }
                   });
                 });
  return FinishOp(op, std::move(out), {a_impl.get(), b_impl.get()});
}

// Generic elementwise unary op: `fwd(v)` and `dfdv(v, out_v)` where `out_v`
// is the already-computed forward value (handy for tanh/sigmoid/exp).
template <typename Fwd, typename Dfdv>
Tensor UnaryOp(const char* op, const Tensor& a, Fwd fwd, Dfdv dfdv) {
  ADAMEL_CHECK(a.defined());
  const auto& ai = *a.impl();
  auto out = NewResult(ai.rows, ai.cols);
  const int64_t n = static_cast<int64_t>(ai.data.size());
  ADAMEL_COUNTER_ADD("nn.elemwise.calls", 1);
  ADAMEL_COUNTER_ADD("nn.elemwise.elems", n);
  const int64_t grain = n >= kElemwiseParallelMin ? kElemwiseGrain : n;
  ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      out->data[i] = fwd(ai.data[i]);
    }
  });
  auto a_impl = a.impl();
  AttachBackward(out, {a_impl}, [a_impl, dfdv, grain](TensorImpl& self) {
    a_impl->EnsureGrad();
    ParallelFor(0, static_cast<int64_t>(self.data.size()), grain,
                [&](int64_t lo, int64_t hi) {
                  for (int64_t i = lo; i < hi; ++i) {
                    a_impl->grad[i] +=
                        self.grad[i] * dfdv(a_impl->data[i], self.data[i]);
                  }
                });
  });
  return FinishOp(op, std::move(out), {a_impl.get()});
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "Add", a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "Sub", a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "Mul", a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "Div", a, b, [](float x, float y) { return x / y; },
      [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); });
}

Tensor AddScalar(const Tensor& a, float value) {
  return UnaryOp(
      "AddScalar", a, [value](float v) { return v + value; },
      [](float, float) { return 1.0f; });
}

// MulScalar and Relu run their forward (and Relu's backward) through the
// dispatched kernel table — the two hottest elementwise ops of the
// training step. Every backend computes the identical expression, so
// routing through kernels::Active() changes nothing bitwise (see
// nn/kernels/kernels.h).
Tensor MulScalar(const Tensor& a, float value) {
  ADAMEL_CHECK(a.defined());
  const auto& ai = *a.impl();
  auto out = NewResult(ai.rows, ai.cols);
  const int64_t n = static_cast<int64_t>(ai.data.size());
  ADAMEL_COUNTER_ADD("nn.elemwise.calls", 1);
  ADAMEL_COUNTER_ADD("nn.elemwise.elems", n);
  const int64_t grain = n >= kElemwiseParallelMin ? kElemwiseGrain : n;
  const kernels::KernelBackend& backend = kernels::Active();
  ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    backend.scale(ai.data.data() + lo, value, out->data.data() + lo, hi - lo);
  });
  auto a_impl = a.impl();
  AttachBackward(out, {a_impl}, [a_impl, value, grain](TensorImpl& self) {
    a_impl->EnsureGrad();
    ParallelFor(0, static_cast<int64_t>(self.data.size()), grain,
                [&](int64_t lo, int64_t hi) {
                  for (int64_t i = lo; i < hi; ++i) {
                    a_impl->grad[i] += self.grad[i] * value;
                  }
                });
  });
  return FinishOp("MulScalar", std::move(out), {a_impl.get()});
}

Tensor Relu(const Tensor& a) {
  ADAMEL_CHECK(a.defined());
  const auto& ai = *a.impl();
  auto out = NewResult(ai.rows, ai.cols);
  const int64_t n = static_cast<int64_t>(ai.data.size());
  ADAMEL_COUNTER_ADD("nn.elemwise.calls", 1);
  ADAMEL_COUNTER_ADD("nn.elemwise.elems", n);
  const int64_t grain = n >= kElemwiseParallelMin ? kElemwiseGrain : n;
  const kernels::KernelBackend& backend = kernels::Active();
  ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    backend.relu(ai.data.data() + lo, out->data.data() + lo, hi - lo);
  });
  auto a_impl = a.impl();
  AttachBackward(out, {a_impl}, [a_impl, grain](TensorImpl& self) {
    a_impl->EnsureGrad();
    const kernels::KernelBackend& bwd = kernels::Active();
    ParallelFor(0, static_cast<int64_t>(self.data.size()), grain,
                [&](int64_t lo, int64_t hi) {
                  bwd.relu_grad(a_impl->data.data() + lo,
                                self.grad.data() + lo,
                                a_impl->grad.data() + lo, hi - lo);
                });
  });
  return FinishOp("Relu", std::move(out), {a_impl.get()});
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      "Tanh", a, [](float v) { return std::tanh(v); },
      [](float, float out) { return 1.0f - out * out; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      "Sigmoid", a,
      [](float v) {
        // Branch keeps exp() off large positive arguments.
        return v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                         : std::exp(v) / (1.0f + std::exp(v));
      },
      [](float, float out) { return out * (1.0f - out); });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      "Exp", a, [](float v) { return std::exp(v); },
      [](float, float out) { return out; });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      "Log", a, [](float v) { return std::log(v); },
      [](float v, float) { return 1.0f / v; });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      "Sqrt", a, [](float v) { return std::sqrt(v); },
      [](float, float out) { return 0.5f / out; });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      "Square", a, [](float v) { return v * v; },
      [](float v, float) { return 2.0f * v; });
}

Tensor Clip(const Tensor& a, float lo, float hi) {
  ADAMEL_CHECK_LE(lo, hi);
  return UnaryOp(
      "Clip", a,
      [lo, hi](float v) { return std::min(std::max(v, lo), hi); },
      [lo, hi](float v, float) {
        return (v >= lo && v <= hi) ? 1.0f : 0.0f;
      });
}

namespace {

// -- Packed GEMM --------------------------------------------------------------
//
// C(M x N) (+)= A(M x K) * B(K x N), with B pre-packed into panels of
// kernels::kGemmPanel output columns (see nn/kernels/kernels.h). The inner
// loops live in src/nn/kernels behind a runtime-dispatched backend table
// (scalar / SSE4.1 / AVX2); every backend accumulates each output element
// with a single k-ascending accumulator and no FMA contraction, so results
// are bitwise identical across backends AND at any thread count (rows are
// partitioned with fixed chunking). There is no `a == 0.0f` skip: dense
// inputs pay no branch per multiply, and NaN/Inf propagate through zero
// activations (0 * NaN must stay NaN).

// Packs `src` (k_dim x n_dim, row-major) into panels.
std::vector<float> PackPanels(const float* src, int k_dim, int n_dim) {
  return kernels::PackPanelsF32(src, k_dim, n_dim);
}

// Packs the transpose of `src` (src is n_dim x k_dim, row-major; the packed
// operand is src^T with shape k_dim x n_dim).
std::vector<float> PackPanelsTransposed(const float* src, int k_dim,
                                        int n_dim) {
  return kernels::PackPanelsTransposedF32(src, k_dim, n_dim);
}

// Row-parallel packed kernel; `accumulate` selects `+=` (gradients) vs `=`.
void GemmPacked(int m, int n, int k, const float* a, const float* packed_b,
                float* c, bool accumulate) {
  const int64_t flops = static_cast<int64_t>(m) * n * k;
  // Every MatMul forward (graph-free MatMulPacked included) and both
  // backward grads funnel through this kernel, so these two counters cover
  // the model's full fp32 GEMM work. The
  // conventional FLOP estimate is 2*m*n*k (one multiply + one add per MAC).
  ADAMEL_COUNTER_ADD("nn.gemm.calls", 1);
  ADAMEL_COUNTER_ADD("nn.gemm.flops", 2 * flops);
  const int64_t grain =
      flops >= kGemmSerialFlops
          ? RowGrain(static_cast<int64_t>(n) * k, kGemmGrainFlops)
          : m;
  const kernels::KernelBackend& backend = kernels::Active();
  ParallelFor(0, m, grain, [&](int64_t ib, int64_t ie) {
    backend.gemm_f32_block(a, ib, ie, k, n, packed_b, c, accumulate);
  });
}

}  // namespace

void MatMulPacked(const float* a, int m, int k, const float* packed_b, int n,
                  float* c) {
  GemmPacked(m, n, k, a, packed_b, c, /*accumulate=*/false);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  ADAMEL_CHECK(a.defined() && b.defined());
  const auto& ai = *a.impl();
  const auto& bi = *b.impl();
  ADAMEL_CHECK_EQ(ai.cols, bi.rows) << "MatMul inner dimensions";
  const int rows = ai.rows;
  const int inner = ai.cols;
  const int cols = bi.cols;
  auto out = NewResult(rows, cols);
  {
    const std::vector<float> packed = PackPanels(bi.data.data(), inner, cols);
    MatMulPacked(ai.data.data(), rows, inner, packed.data(), cols,
                 out->data.data());
  }
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  AttachBackward(out, {a_impl, b_impl}, [a_impl, b_impl](TensorImpl& self) {
    const int rows = self.rows;
    const int cols = self.cols;
    const int inner = a_impl->cols;
    if (a_impl->requires_grad) {
      // dA(rows x inner) += dOut(rows x cols) * B^T(cols x inner).
      a_impl->EnsureGrad();
      const std::vector<float> packed_bt =
          PackPanelsTransposed(b_impl->data.data(), cols, inner);
      GemmPacked(rows, inner, cols, self.grad.data(), packed_bt.data(),
                 a_impl->grad.data(), /*accumulate=*/true);
    }
    if (b_impl->requires_grad) {
      // dB(inner x cols) += A^T(inner x rows) * dOut(rows x cols).
      b_impl->EnsureGrad();
      std::vector<float> a_t(static_cast<size_t>(inner) * rows);
      for (int i = 0; i < rows; ++i) {
        const float* a_row = &a_impl->data[static_cast<size_t>(i) * inner];
        for (int k = 0; k < inner; ++k) {
          a_t[static_cast<size_t>(k) * rows + i] = a_row[k];
        }
      }
      const std::vector<float> packed_g =
          PackPanels(self.grad.data(), rows, cols);
      GemmPacked(inner, cols, rows, a_t.data(), packed_g.data(),
                 b_impl->grad.data(), /*accumulate=*/true);
    }
  });
  return FinishOp("MatMul", std::move(out), {a_impl.get(), b_impl.get()});
}

Tensor Transpose(const Tensor& a) {
  ADAMEL_CHECK(a.defined());
  const auto& ai = *a.impl();
  auto out = NewResult(ai.cols, ai.rows);
  for (int r = 0; r < ai.rows; ++r) {
    for (int c = 0; c < ai.cols; ++c) {
      out->data[static_cast<size_t>(c) * ai.rows + r] =
          ai.data[static_cast<size_t>(r) * ai.cols + c];
    }
  }
  auto a_impl = a.impl();
  AttachBackward(out, {a_impl}, [a_impl](TensorImpl& self) {
    a_impl->EnsureGrad();
    for (int r = 0; r < self.rows; ++r) {
      for (int c = 0; c < self.cols; ++c) {
        a_impl->grad[static_cast<size_t>(c) * self.rows + r] +=
            self.grad[static_cast<size_t>(r) * self.cols + c];
      }
    }
  });
  return FinishOp("Transpose", std::move(out), {a_impl.get()});
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  ADAMEL_CHECK(!parts.empty());
  const int rows = parts[0].rows();
  int total_cols = 0;
  for (const auto& part : parts) {
    ADAMEL_CHECK_EQ(part.rows(), rows);
    total_cols += part.cols();
  }
  auto out = NewResult(rows, total_cols);
  std::vector<std::shared_ptr<TensorImpl>> inputs;
  std::vector<int> offsets;
  int offset = 0;
  for (const auto& part : parts) {
    const auto& pi = *part.impl();
    for (int r = 0; r < rows; ++r) {
      std::copy(pi.data.begin() + static_cast<size_t>(r) * pi.cols,
                pi.data.begin() + static_cast<size_t>(r + 1) * pi.cols,
                out->data.begin() + static_cast<size_t>(r) * total_cols +
                    offset);
    }
    inputs.push_back(part.impl());
    offsets.push_back(offset);
    offset += pi.cols;
  }
  AttachBackward(out, inputs, [inputs, offsets](TensorImpl& self) {
    for (size_t p = 0; p < inputs.size(); ++p) {
      auto& part = *inputs[p];
      if (!part.requires_grad) {
        continue;
      }
      part.EnsureGrad();
      for (int r = 0; r < self.rows; ++r) {
        for (int c = 0; c < part.cols; ++c) {
          part.grad[static_cast<size_t>(r) * part.cols + c] +=
              self.grad[static_cast<size_t>(r) * self.cols + offsets[p] + c];
        }
      }
    }
  });
  return FinishOpMulti("ConcatCols", std::move(out), inputs);
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  ADAMEL_CHECK(!parts.empty());
  const int cols = parts[0].cols();
  int total_rows = 0;
  for (const auto& part : parts) {
    ADAMEL_CHECK_EQ(part.cols(), cols);
    total_rows += part.rows();
  }
  auto out = NewResult(total_rows, cols);
  std::vector<std::shared_ptr<TensorImpl>> inputs;
  std::vector<int> offsets;
  int offset = 0;
  for (const auto& part : parts) {
    const auto& pi = *part.impl();
    std::copy(pi.data.begin(), pi.data.end(),
              out->data.begin() + static_cast<size_t>(offset) * cols);
    inputs.push_back(part.impl());
    offsets.push_back(offset);
    offset += pi.rows;
  }
  AttachBackward(out, inputs, [inputs, offsets](TensorImpl& self) {
    for (size_t p = 0; p < inputs.size(); ++p) {
      auto& part = *inputs[p];
      if (!part.requires_grad) {
        continue;
      }
      part.EnsureGrad();
      const size_t base = static_cast<size_t>(offsets[p]) * self.cols;
      for (size_t i = 0; i < part.data.size(); ++i) {
        part.grad[i] += self.grad[base + i];
      }
    }
  });
  return FinishOpMulti("ConcatRows", std::move(out), inputs);
}

Tensor SliceCols(const Tensor& a, int start, int count) {
  ADAMEL_CHECK(a.defined());
  const auto& ai = *a.impl();
  ADAMEL_CHECK_GE(start, 0);
  ADAMEL_CHECK_GT(count, 0);
  ADAMEL_CHECK_LE(start + count, ai.cols);
  auto out = NewResult(ai.rows, count);
  for (int r = 0; r < ai.rows; ++r) {
    std::copy(ai.data.begin() + static_cast<size_t>(r) * ai.cols + start,
              ai.data.begin() + static_cast<size_t>(r) * ai.cols + start +
                  count,
              out->data.begin() + static_cast<size_t>(r) * count);
  }
  auto a_impl = a.impl();
  AttachBackward(out, {a_impl}, [a_impl, start](TensorImpl& self) {
    a_impl->EnsureGrad();
    for (int r = 0; r < self.rows; ++r) {
      for (int c = 0; c < self.cols; ++c) {
        a_impl->grad[static_cast<size_t>(r) * a_impl->cols + start + c] +=
            self.grad[static_cast<size_t>(r) * self.cols + c];
      }
    }
  });
  return FinishOp("SliceCols", std::move(out), {a_impl.get()});
}

Tensor SliceRows(const Tensor& a, int start, int count) {
  ADAMEL_CHECK(a.defined());
  const auto& ai = *a.impl();
  ADAMEL_CHECK_GE(start, 0);
  ADAMEL_CHECK_GT(count, 0);
  ADAMEL_CHECK_LE(start + count, ai.rows);
  auto out = NewResult(count, ai.cols);
  std::copy(ai.data.begin() + static_cast<size_t>(start) * ai.cols,
            ai.data.begin() + static_cast<size_t>(start + count) * ai.cols,
            out->data.begin());
  auto a_impl = a.impl();
  AttachBackward(out, {a_impl}, [a_impl, start](TensorImpl& self) {
    a_impl->EnsureGrad();
    const size_t base = static_cast<size_t>(start) * a_impl->cols;
    for (size_t i = 0; i < self.data.size(); ++i) {
      a_impl->grad[base + i] += self.grad[i];
    }
  });
  return FinishOp("SliceRows", std::move(out), {a_impl.get()});
}

Tensor SelectRows(const Tensor& a, const std::vector<int>& indices) {
  ADAMEL_CHECK(a.defined());
  ADAMEL_CHECK(!indices.empty());
  const auto& ai = *a.impl();
  auto out = NewResult(static_cast<int>(indices.size()), ai.cols);
  for (size_t i = 0; i < indices.size(); ++i) {
    const int row = indices[i];
    ADAMEL_CHECK_GE(row, 0);
    ADAMEL_CHECK_LT(row, ai.rows);
    std::copy(ai.data.begin() + static_cast<size_t>(row) * ai.cols,
              ai.data.begin() + static_cast<size_t>(row + 1) * ai.cols,
              out->data.begin() + i * ai.cols);
  }
  auto a_impl = a.impl();
  auto idx = indices;
  AttachBackward(out, {a_impl}, [a_impl, idx](TensorImpl& self) {
    a_impl->EnsureGrad();
    for (size_t i = 0; i < idx.size(); ++i) {
      const size_t src = i * self.cols;
      const size_t dst = static_cast<size_t>(idx[i]) * self.cols;
      for (int c = 0; c < self.cols; ++c) {
        a_impl->grad[dst + c] += self.grad[src + c];
      }
    }
  });
  return FinishOp("SelectRows", std::move(out), {a_impl.get()});
}

Tensor Reshape(const Tensor& a, int rows, int cols) {
  ADAMEL_CHECK(a.defined());
  const auto& ai = *a.impl();
  ADAMEL_CHECK_EQ(ai.size(), rows * cols);
  auto out = NewResult(rows, cols);
  out->data = ai.data;
  auto a_impl = a.impl();
  AttachBackward(out, {a_impl}, [a_impl](TensorImpl& self) {
    a_impl->EnsureGrad();
    for (size_t i = 0; i < self.data.size(); ++i) {
      a_impl->grad[i] += self.grad[i];
    }
  });
  return FinishOp("Reshape", std::move(out), {a_impl.get()});
}

Tensor Sum(const Tensor& a) {
  ADAMEL_CHECK(a.defined());
  const auto& ai = *a.impl();
  auto out = NewResult(1, 1);
  const int64_t n = static_cast<int64_t>(ai.data.size());
  if (n >= kElemwiseParallelMin) {
    // Fixed-chunk partial sums combined in chunk order: bitwise identical at
    // any thread count (the path choice depends only on the tensor size).
    const double acc = ParallelReduce<double>(
        0, n, kElemwiseGrain, 0.0,
        [&](int64_t lo, int64_t hi) {
          double partial = 0.0;
          for (int64_t i = lo; i < hi; ++i) {
            partial += ai.data[i];
          }
          return partial;
        },
        [](double x, double y) { return x + y; });
    out->data[0] = static_cast<float>(acc);
  } else {
    double acc = 0.0;
    for (float v : ai.data) {
      acc += v;
    }
    out->data[0] = static_cast<float>(acc);
  }
  auto a_impl = a.impl();
  AttachBackward(out, {a_impl}, [a_impl](TensorImpl& self) {
    a_impl->EnsureGrad();
    const float g = self.grad[0];
    ParallelFor(0, static_cast<int64_t>(a_impl->grad.size()), kElemwiseGrain,
                [&](int64_t lo, int64_t hi) {
                  for (int64_t i = lo; i < hi; ++i) {
                    a_impl->grad[i] += g;
                  }
                });
  });
  return FinishOp("Sum", std::move(out), {a_impl.get()});
}

Tensor Mean(const Tensor& a) {
  const float inv = 1.0f / static_cast<float>(a.size());
  return MulScalar(Sum(a), inv);
}

Tensor SumRows(const Tensor& a) {
  ADAMEL_CHECK(a.defined());
  const auto& ai = *a.impl();
  auto out = NewResult(ai.rows, 1);
  const int64_t row_grain =
      static_cast<int64_t>(ai.rows) * ai.cols >= kElemwiseParallelMin
          ? RowGrain(ai.cols, kElemwiseGrain)
          : ai.rows;
  ParallelFor(0, ai.rows, row_grain, [&](int64_t rb, int64_t re) {
    for (int r = static_cast<int>(rb); r < re; ++r) {
      double acc = 0.0;
      for (int c = 0; c < ai.cols; ++c) {
        acc += ai.data[static_cast<size_t>(r) * ai.cols + c];
      }
      out->data[r] = static_cast<float>(acc);
    }
  });
  auto a_impl = a.impl();
  AttachBackward(out, {a_impl}, [a_impl, row_grain](TensorImpl& self) {
    a_impl->EnsureGrad();
    ParallelFor(0, a_impl->rows, row_grain, [&](int64_t rb, int64_t re) {
      for (int r = static_cast<int>(rb); r < re; ++r) {
        const float g = self.grad[r];
        for (int c = 0; c < a_impl->cols; ++c) {
          a_impl->grad[static_cast<size_t>(r) * a_impl->cols + c] += g;
        }
      }
    });
  });
  return FinishOp("SumRows", std::move(out), {a_impl.get()});
}

Tensor SumCols(const Tensor& a) {
  ADAMEL_CHECK(a.defined());
  const auto& ai = *a.impl();
  auto out = NewResult(1, ai.cols);
  const int64_t row_grain =
      static_cast<int64_t>(ai.rows) * ai.cols >= kElemwiseParallelMin
          ? RowGrain(ai.cols, kElemwiseGrain)
          : ai.rows;
  if (row_grain < ai.rows) {
    // Per-chunk column partials combined in fixed chunk order.
    const std::vector<double> acc = ParallelReduce<std::vector<double>>(
        0, ai.rows, row_grain, std::vector<double>(ai.cols, 0.0),
        [&](int64_t rb, int64_t re) {
          std::vector<double> partial(ai.cols, 0.0);
          for (int r = static_cast<int>(rb); r < re; ++r) {
            for (int c = 0; c < ai.cols; ++c) {
              partial[c] += ai.data[static_cast<size_t>(r) * ai.cols + c];
            }
          }
          return partial;
        },
        [](std::vector<double> x, const std::vector<double>& y) {
          for (size_t c = 0; c < x.size(); ++c) {
            x[c] += y[c];
          }
          return x;
        });
    for (int c = 0; c < ai.cols; ++c) {
      out->data[c] = static_cast<float>(acc[c]);
    }
  } else {
    for (int c = 0; c < ai.cols; ++c) {
      double acc = 0.0;
      for (int r = 0; r < ai.rows; ++r) {
        acc += ai.data[static_cast<size_t>(r) * ai.cols + c];
      }
      out->data[c] = static_cast<float>(acc);
    }
  }
  auto a_impl = a.impl();
  AttachBackward(out, {a_impl}, [a_impl, row_grain](TensorImpl& self) {
    a_impl->EnsureGrad();
    ParallelFor(0, a_impl->rows, row_grain, [&](int64_t rb, int64_t re) {
      for (int r = static_cast<int>(rb); r < re; ++r) {
        for (int c = 0; c < a_impl->cols; ++c) {
          a_impl->grad[static_cast<size_t>(r) * a_impl->cols + c] +=
              self.grad[c];
        }
      }
    });
  });
  return FinishOp("SumCols", std::move(out), {a_impl.get()});
}

Tensor MeanCols(const Tensor& a) {
  const float inv = 1.0f / static_cast<float>(a.rows());
  return MulScalar(SumCols(a), inv);
}

Tensor Softmax(const Tensor& a) {
  ADAMEL_CHECK(a.defined());
  const auto& ai = *a.impl();
  ADAMEL_COUNTER_ADD("nn.softmax.calls", 1);
  ADAMEL_COUNTER_ADD("nn.softmax.rows", ai.rows);
  auto out = NewResult(ai.rows, ai.cols);
  const int64_t softmax_grain =
      static_cast<int64_t>(ai.rows) * ai.cols >= kElemwiseParallelMin
          ? RowGrain(ai.cols, kElemwiseGrain)
          : ai.rows;
  // Rows are independent: each chunk owns a disjoint row range. The row-max
  // and normalize passes run through the dispatched kernels (bitwise
  // backend-invariant); the exp + denominator pass stays scalar libm — the
  // exact fp32 contract keeps std::exp on the default path, and the double
  // accumulator is inherently sequential.
  const kernels::KernelBackend& backend = kernels::Active();
  ParallelFor(0, ai.rows, softmax_grain, [&](int64_t rb, int64_t re) {
    for (int r = static_cast<int>(rb); r < re; ++r) {
      const size_t base = static_cast<size_t>(r) * ai.cols;
      const float row_max = backend.row_max(&ai.data[base], ai.cols);
      double denom = 0.0;
      for (int c = 0; c < ai.cols; ++c) {
        const float e = std::exp(ai.data[base + c] - row_max);
        out->data[base + c] = e;
        denom += e;
      }
      const float inv = static_cast<float>(1.0 / denom);
      backend.scale(&out->data[base], inv, &out->data[base], ai.cols);
    }
  });
  auto a_impl = a.impl();
  AttachBackward(out, {a_impl}, [a_impl, softmax_grain](TensorImpl& self) {
    // dL/dx_j = s_j * (g_j - sum_k g_k s_k), per row.
    a_impl->EnsureGrad();
    ParallelFor(0, self.rows, softmax_grain, [&](int64_t rb, int64_t re) {
      for (int r = static_cast<int>(rb); r < re; ++r) {
        const size_t base = static_cast<size_t>(r) * self.cols;
        double dot = 0.0;
        for (int c = 0; c < self.cols; ++c) {
          dot += self.grad[base + c] * self.data[base + c];
        }
        for (int c = 0; c < self.cols; ++c) {
          a_impl->grad[base + c] +=
              self.data[base + c] *
              (self.grad[base + c] - static_cast<float>(dot));
        }
      }
    });
  });
  return FinishOp("Softmax", std::move(out), {a_impl.get()});
}

Tensor Dropout(const Tensor& a, float p, Rng* rng, bool training) {
  ADAMEL_CHECK(a.defined());
  ADAMEL_CHECK_GE(p, 0.0f);
  ADAMEL_CHECK_LT(p, 1.0f);
  if (!training || p == 0.0f) {
    // Identity pass-through that still participates in the graph.
    return MulScalar(a, 1.0f);
  }
  ADAMEL_CHECK(rng != nullptr);
  const auto& ai = *a.impl();
  auto mask = std::make_shared<std::vector<float>>(ai.data.size());
  const float scale = 1.0f / (1.0f - p);
  for (auto& m : *mask) {
    m = rng->Bernoulli(p) ? 0.0f : scale;
  }
  auto out = NewResult(ai.rows, ai.cols);
  for (size_t i = 0; i < ai.data.size(); ++i) {
    out->data[i] = ai.data[i] * (*mask)[i];
  }
  auto a_impl = a.impl();
  AttachBackward(out, {a_impl}, [a_impl, mask](TensorImpl& self) {
    a_impl->EnsureGrad();
    for (size_t i = 0; i < self.data.size(); ++i) {
      a_impl->grad[i] += self.grad[i] * (*mask)[i];
    }
  });
  return FinishOp("Dropout", std::move(out), {a_impl.get()});
}

Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& targets,
                     const std::vector<float>& weights) {
  ADAMEL_CHECK(logits.defined());
  const auto& li = *logits.impl();
  ADAMEL_CHECK_EQ(li.cols, 1) << "BceWithLogits expects Rx1 logits";
  ADAMEL_CHECK_EQ(static_cast<size_t>(li.rows), targets.size());
  ADAMEL_CHECK(weights.empty() ||
               weights.size() == targets.size());
  const int n = li.rows;
  auto out = NewResult(1, 1);
  double total = 0.0;
  double weight_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const float z = li.data[i];
    const float y = targets[i];
    const float w = weights.empty() ? 1.0f : weights[i];
    // max(z,0) - z*y + log(1 + exp(-|z|)) is the stable form of
    // -y log σ(z) - (1-y) log(1-σ(z)).
    const float loss = std::max(z, 0.0f) - z * y +
                       std::log1p(std::exp(-std::fabs(z)));
    total += static_cast<double>(w) * loss;
    weight_sum += w;
  }
  ADAMEL_CHECK_GT(weight_sum, 0.0);
  out->data[0] = static_cast<float>(total / weight_sum);
  auto l_impl = logits.impl();
  auto y_copy = targets;
  auto w_copy = weights;
  const float inv_weight_sum = static_cast<float>(1.0 / weight_sum);
  AttachBackward(out, {l_impl},
                 [l_impl, y_copy, w_copy, inv_weight_sum](TensorImpl& self) {
                   l_impl->EnsureGrad();
                   const float g = self.grad[0];
                   for (size_t i = 0; i < y_copy.size(); ++i) {
                     const float z = l_impl->data[i];
                     const float sig =
                         z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                                   : std::exp(z) / (1.0f + std::exp(z));
                     const float w = w_copy.empty() ? 1.0f : w_copy[i];
                     l_impl->grad[i] +=
                         g * w * (sig - y_copy[i]) * inv_weight_sum;
                   }
                 });
  return FinishOp("BceWithLogits", std::move(out), {l_impl.get()});
}

Tensor RowKlDivergence(const std::vector<float>& p, const Tensor& q) {
  ADAMEL_CHECK(q.defined());
  const auto& qi = *q.impl();
  ADAMEL_CHECK_EQ(static_cast<size_t>(qi.cols), p.size());
  constexpr float kEps = 1e-8f;
  auto out = NewResult(1, 1);
  double total = 0.0;
  for (int r = 0; r < qi.rows; ++r) {
    for (int c = 0; c < qi.cols; ++c) {
      const float pj = p[c];
      if (pj <= 0.0f) {
        continue;  // 0 * log(0/q) == 0 by convention
      }
      const float qv = std::max(qi.data[static_cast<size_t>(r) * qi.cols + c],
                                kEps);
      total += static_cast<double>(pj) * std::log(pj / qv);
    }
  }
  out->data[0] = static_cast<float>(total);
  auto q_impl = q.impl();
  auto p_copy = p;
  AttachBackward(out, {q_impl}, [q_impl, p_copy](TensorImpl& self) {
    // d/dq_ij [ p_j log(p_j / q_ij) ] = -p_j / q_ij.
    q_impl->EnsureGrad();
    const float g = self.grad[0];
    for (int r = 0; r < q_impl->rows; ++r) {
      for (int c = 0; c < q_impl->cols; ++c) {
        const float pj = p_copy[c];
        if (pj <= 0.0f) {
          continue;
        }
        const float qv = std::max(
            q_impl->data[static_cast<size_t>(r) * q_impl->cols + c], 1e-8f);
        q_impl->grad[static_cast<size_t>(r) * q_impl->cols + c] +=
            g * (-pj / qv);
      }
    }
  });
  return FinishOp("RowKlDivergence", std::move(out), {q_impl.get()});
}

}  // namespace adamel::nn
