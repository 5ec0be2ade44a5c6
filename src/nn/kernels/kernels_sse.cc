// SSE4.1 backend: 128-bit lane-for-lane translation of kernels_scalar.cc.
//
// Parity rules this file obeys (tested by tests/kernels_test.cpp):
//  - multiplies and adds stay separate instructions (the TU compiles with
//    -ffp-contract=off and never uses FMA intrinsics), so float accumulation
//    matches the scalar k-ascending order bitwise;
//  - min/max/compare operand order is chosen so NaN handling matches the
//    scalar ternaries it mirrors (maxps/minps return the SECOND operand on
//    NaN, which is exactly the `cond ? v : fallback` fallback slot).

#include "nn/kernels/backends.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "nn/kernels/kernels.h"
#include "nn/kernels/kernels_common.h"

namespace adamel::nn::kernels {
namespace {

void GemmF32Block(const float* a, int64_t row_begin, int64_t row_end, int k,
                  int n, const float* packed_b, float* c, bool accumulate) {
  const int panels = (n + kGemmPanel - 1) / kGemmPanel;
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* a_row = a + static_cast<size_t>(i) * k;
    float* c_row = c + static_cast<size_t>(i) * n;
    for (int p = 0; p < panels; ++p) {
      const float* panel = packed_b + static_cast<size_t>(p) * k * kGemmPanel;
      __m128 acc0 = _mm_setzero_ps();
      __m128 acc1 = _mm_setzero_ps();
      __m128 acc2 = _mm_setzero_ps();
      __m128 acc3 = _mm_setzero_ps();
      for (int kk = 0; kk < k; ++kk) {
        const __m128 av = _mm_set1_ps(a_row[kk]);
        const float* b_line = panel + static_cast<size_t>(kk) * kGemmPanel;
        acc0 = _mm_add_ps(acc0, _mm_mul_ps(av, _mm_loadu_ps(b_line)));
        acc1 = _mm_add_ps(acc1, _mm_mul_ps(av, _mm_loadu_ps(b_line + 4)));
        acc2 = _mm_add_ps(acc2, _mm_mul_ps(av, _mm_loadu_ps(b_line + 8)));
        acc3 = _mm_add_ps(acc3, _mm_mul_ps(av, _mm_loadu_ps(b_line + 12)));
      }
      const int j0 = p * kGemmPanel;
      const int width = std::min(kGemmPanel, n - j0);
      float* out = c_row + j0;
      if (width == kGemmPanel) {
        if (accumulate) {
          _mm_storeu_ps(out, _mm_add_ps(_mm_loadu_ps(out), acc0));
          _mm_storeu_ps(out + 4, _mm_add_ps(_mm_loadu_ps(out + 4), acc1));
          _mm_storeu_ps(out + 8, _mm_add_ps(_mm_loadu_ps(out + 8), acc2));
          _mm_storeu_ps(out + 12, _mm_add_ps(_mm_loadu_ps(out + 12), acc3));
        } else {
          _mm_storeu_ps(out, acc0);
          _mm_storeu_ps(out + 4, acc1);
          _mm_storeu_ps(out + 8, acc2);
          _mm_storeu_ps(out + 12, acc3);
        }
      } else {
        float tmp[kGemmPanel];
        _mm_storeu_ps(tmp, acc0);
        _mm_storeu_ps(tmp + 4, acc1);
        _mm_storeu_ps(tmp + 8, acc2);
        _mm_storeu_ps(tmp + 12, acc3);
        if (accumulate) {
          for (int jj = 0; jj < width; ++jj) {
            out[jj] += tmp[jj];
          }
        } else {
          for (int jj = 0; jj < width; ++jj) {
            out[jj] = tmp[jj];
          }
        }
      }
    }
  }
}

void Relu(const float* x, float* y, int64_t n) {
  const __m128 zero = _mm_setzero_ps();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // maxps(x, 0) returns 0 on NaN lanes — same as the scalar `x > 0 ? x : 0`.
    _mm_storeu_ps(y + i, _mm_max_ps(_mm_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) {
    y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
}

void ReluGrad(const float* x, const float* g, float* dx, int64_t n) {
  const __m128 zero = _mm_setzero_ps();
  const __m128 one = _mm_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Scalar computes g * (x > 0 ? 1 : 0); masking `one` keeps the multiply
    // so NaN/Inf gradients behave identically (g * 0, not bitwise-and 0).
    const __m128 sel =
        _mm_and_ps(_mm_cmpgt_ps(_mm_loadu_ps(x + i), zero), one);
    const __m128 add = _mm_mul_ps(_mm_loadu_ps(g + i), sel);
    _mm_storeu_ps(dx + i, _mm_add_ps(_mm_loadu_ps(dx + i), add));
  }
  for (; i < n; ++i) {
    dx[i] += g[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
  }
}

void Scale(const float* x, float s, float* y, int64_t n) {
  const __m128 sv = _mm_set1_ps(s);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i, _mm_mul_ps(_mm_loadu_ps(x + i), sv));
  }
  for (; i < n; ++i) {
    y[i] = x[i] * s;
  }
}

float RowMax(const float* x, int64_t n) {
  if (n < 8) {
    float m = x[0];
    for (int64_t i = 1; i < n; ++i) {
      m = std::max(m, x[i]);
    }
    return m;
  }
  __m128 acc = _mm_loadu_ps(x);
  int64_t i = 4;
  for (; i + 4 <= n; i += 4) {
    acc = _mm_max_ps(acc, _mm_loadu_ps(x + i));
  }
  float lanes[4];
  _mm_storeu_ps(lanes, acc);
  float m = std::max(std::max(lanes[0], lanes[1]),
                     std::max(lanes[2], lanes[3]));
  for (; i < n; ++i) {
    m = std::max(m, x[i]);
  }
  return m;
}

void QuantizeS8(const float* x, float inv_scale, int8_t* q, int64_t n) {
  const __m128 sv = _mm_set1_ps(inv_scale);
  const __m128 hi = _mm_set1_ps(127.0f);
  const __m128 lo = _mm_set1_ps(-127.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // roundps to nearest-even matches std::nearbyint; minps/maxps put the
    // clamp bound in the NaN slot like the scalar ternaries.
    __m128 r = _mm_round_ps(_mm_mul_ps(_mm_loadu_ps(x + i), sv),
                            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    r = _mm_min_ps(r, hi);
    r = _mm_max_ps(r, lo);
    const __m128i i32 = _mm_cvttps_epi32(r);
    const __m128i i16 = _mm_packs_epi32(i32, i32);
    const __m128i i8 = _mm_packs_epi16(i16, i16);
    const int32_t quad = _mm_cvtsi128_si32(i8);
    std::memcpy(q + i, &quad, sizeof(quad));
  }
  for (; i < n; ++i) {
    q[i] = detail::QuantizeOne(x[i], inv_scale);
  }
}

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
      __m128i acc0 = _mm_setzero_si128();
      __m128i acc1 = _mm_setzero_si128();
      __m128i acc2 = _mm_setzero_si128();
      __m128i acc3 = _mm_setzero_si128();
      for (int kp = 0; kp < k_pairs; ++kp) {
        const int16_t a0 = a_row[2 * kp];
        const int16_t a1 = a_row[2 * kp + 1];
        const __m128i apair = _mm_set1_epi32(
            static_cast<int32_t>(static_cast<uint16_t>(a0)) |
            (static_cast<int32_t>(static_cast<uint16_t>(a1)) << 16));
        const int8_t* b_line =
            panel + static_cast<size_t>(kp) * kGemmPanel * kQuantKUnroll;
        // Each 16-byte chunk holds 8 (k, k+1) pairs = 8 columns; widen to
        // int16 and madd: lane j gets b[k][j]*a0 + b[k+1][j]*a1 exactly.
        const __m128i chunk_lo =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b_line));
        const __m128i chunk_hi =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b_line + 16));
        acc0 = _mm_add_epi32(
            acc0, _mm_madd_epi16(_mm_cvtepi8_epi16(chunk_lo), apair));
        acc1 = _mm_add_epi32(
            acc1, _mm_madd_epi16(
                      _mm_cvtepi8_epi16(_mm_srli_si128(chunk_lo, 8)), apair));
        acc2 = _mm_add_epi32(
            acc2, _mm_madd_epi16(_mm_cvtepi8_epi16(chunk_hi), apair));
        acc3 = _mm_add_epi32(
            acc3, _mm_madd_epi16(
                      _mm_cvtepi8_epi16(_mm_srli_si128(chunk_hi, 8)), apair));
      }
      const int j0 = p * kGemmPanel;
      const int width = std::min(kGemmPanel, n - j0);
      int32_t* out = c_row + j0;
      if (width == kGemmPanel) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out), acc0);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4), acc1);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 8), acc2);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 12), acc3);
      } else {
        int32_t tmp[kGemmPanel];
        _mm_storeu_si128(reinterpret_cast<__m128i*>(tmp), acc0);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(tmp + 4), acc1);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(tmp + 8), acc2);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(tmp + 12), acc3);
        for (int jj = 0; jj < width; ++jj) {
          out[jj] = tmp[jj];
        }
      }
    }
  }
}

}  // namespace

namespace internal {

const KernelBackend* SseBackend() {
  static const KernelBackend backend = {
      .name = "sse",
      .gemm_f32_block = GemmF32Block,
      .relu = Relu,
      .relu_grad = ReluGrad,
      .scale = Scale,
      .row_max = RowMax,
      .quantize_s8 = QuantizeS8,
      .gemm_s8_block = GemmS8Block,
  };
  return &backend;
}

}  // namespace internal
}  // namespace adamel::nn::kernels

#else  // !x86

namespace adamel::nn::kernels::internal {

const KernelBackend* SseBackend() { return nullptr; }

}  // namespace adamel::nn::kernels::internal

#endif
