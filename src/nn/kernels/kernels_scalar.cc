// Scalar reference backend: portable C++, no intrinsics.
//
// This translation unit is the oracle the SIMD backends are tested against,
// so it is compiled with vectorization disabled (see CMakeLists.txt): a
// kernel bug must bisect against genuinely scalar IEEE code, not whatever
// the autovectorizer decided to emit this release. It is also the backend
// every non-x86 build runs.

#include <algorithm>
#include <cstdint>

#include "nn/kernels/backends.h"
#include "nn/kernels/kernels.h"
#include "nn/kernels/kernels_common.h"

namespace adamel::nn::kernels {
namespace {

// Mirrors the historical GemmPacked inner loop in nn/ops.cc: one k-ascending
// accumulator per output element, no zero-skip (0 * NaN must stay NaN).
void GemmF32Block(const float* a, int64_t row_begin, int64_t row_end, int k,
                  int n, const float* packed_b, float* c, bool accumulate) {
  const int panels = (n + kGemmPanel - 1) / kGemmPanel;
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* a_row = a + static_cast<size_t>(i) * k;
    float* c_row = c + static_cast<size_t>(i) * n;
    for (int p = 0; p < panels; ++p) {
      const float* panel = packed_b + static_cast<size_t>(p) * k * kGemmPanel;
      float acc[kGemmPanel] = {0.0f};
      for (int kk = 0; kk < k; ++kk) {
        const float av = a_row[kk];
        const float* b_line = panel + static_cast<size_t>(kk) * kGemmPanel;
        for (int jj = 0; jj < kGemmPanel; ++jj) {
          acc[jj] += av * b_line[jj];
        }
      }
      const int j0 = p * kGemmPanel;
      const int width = std::min(kGemmPanel, n - j0);
      if (accumulate) {
        for (int jj = 0; jj < width; ++jj) {
          c_row[j0 + jj] += acc[jj];
        }
      } else {
        for (int jj = 0; jj < width; ++jj) {
          c_row[j0 + jj] = acc[jj];
        }
      }
    }
  }
}

void Relu(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
}

void ReluGrad(const float* x, const float* g, float* dx, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dx[i] += g[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
  }
}

void Scale(const float* x, float s, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    y[i] = x[i] * s;
  }
}

float RowMax(const float* x, int64_t n) {
  float m = x[0];
  for (int64_t i = 1; i < n; ++i) {
    m = std::max(m, x[i]);
  }
  return m;
}

void QuantizeS8(const float* x, float inv_scale, int8_t* q, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    q[i] = detail::QuantizeOne(x[i], inv_scale);
  }
}

// Int8 panels are pair-interleaved: the line for k-pair kp holds
// {b[2kp][j], b[2kp+1][j]} for the panel's 16 columns (32 bytes). Integer
// accumulation is exact, so all backends agree bitwise by construction.
void GemmS8Block(const int8_t* a, int64_t row_begin, int64_t row_end,
                 int k_padded, int n, const int8_t* packed_b, int32_t* c) {
  const int panels = (n + kGemmPanel - 1) / kGemmPanel;
  const int k_pairs = k_padded / kQuantKUnroll;
  for (int64_t i = row_begin; i < row_end; ++i) {
    const int8_t* a_row = a + static_cast<size_t>(i) * k_padded;
    int32_t* c_row = c + static_cast<size_t>(i) * n;
    for (int p = 0; p < panels; ++p) {
      const int8_t* panel =
          packed_b + static_cast<size_t>(p) * k_padded * kGemmPanel;
      int32_t acc[kGemmPanel] = {0};
      for (int kp = 0; kp < k_pairs; ++kp) {
        const int32_t a0 = a_row[2 * kp];
        const int32_t a1 = a_row[2 * kp + 1];
        const int8_t* b_line =
            panel + static_cast<size_t>(kp) * kGemmPanel * kQuantKUnroll;
        for (int jj = 0; jj < kGemmPanel; ++jj) {
          acc[jj] += a0 * b_line[2 * jj] + a1 * b_line[2 * jj + 1];
        }
      }
      const int j0 = p * kGemmPanel;
      const int width = std::min(kGemmPanel, n - j0);
      for (int jj = 0; jj < width; ++jj) {
        c_row[j0 + jj] = acc[jj];
      }
    }
  }
}

}  // namespace

namespace internal {

const KernelBackend& ScalarBackend() {
  static const KernelBackend backend = {
      .name = "scalar",
      .gemm_f32_block = GemmF32Block,
      .relu = Relu,
      .relu_grad = ReluGrad,
      .scale = Scale,
      .row_max = RowMax,
      .quantize_s8 = QuantizeS8,
      .gemm_s8_block = GemmS8Block,
  };
  return backend;
}

}  // namespace internal
}  // namespace adamel::nn::kernels
