// AVX2 backend: 256-bit lane-for-lane translation of kernels_scalar.cc.
//
// Same parity rules as kernels_sse.cc: no FMA intrinsics and
// -ffp-contract=off (separate mul/add keeps the scalar accumulation order
// bitwise), and min/max operand order mirrors the scalar ternaries' NaN
// fallback. The fp32 GEMM adds 4-row register blocking — that amortizes
// B-panel loads across rows but leaves each output element's k-ascending
// accumulation untouched, so results still match the scalar backend bitwise.

#include "nn/kernels/backends.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "nn/kernels/kernels.h"
#include "nn/kernels/kernels_common.h"

namespace adamel::nn::kernels {
namespace {

// Writes one finished 16-wide panel accumulator pair for one row.
inline void StorePanel(float* out, int width, __m256 lo, __m256 hi,
                       bool accumulate) {
  if (width == kGemmPanel) {
    if (accumulate) {
      _mm256_storeu_ps(out, _mm256_add_ps(_mm256_loadu_ps(out), lo));
      _mm256_storeu_ps(out + 8, _mm256_add_ps(_mm256_loadu_ps(out + 8), hi));
    } else {
      _mm256_storeu_ps(out, lo);
      _mm256_storeu_ps(out + 8, hi);
    }
    return;
  }
  float tmp[kGemmPanel];
  _mm256_storeu_ps(tmp, lo);
  _mm256_storeu_ps(tmp + 8, hi);
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

void GemmF32Block(const float* a, int64_t row_begin, int64_t row_end, int k,
                  int n, const float* packed_b, float* c, bool accumulate) {
  const int panels = (n + kGemmPanel - 1) / kGemmPanel;
  int64_t i = row_begin;
  // 4-row blocks: the two B-panel loads per k feed four rows' accumulators.
  for (; i + 4 <= row_end; i += 4) {
    const float* a0 = a + static_cast<size_t>(i) * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    for (int p = 0; p < panels; ++p) {
      const float* panel = packed_b + static_cast<size_t>(p) * k * kGemmPanel;
      __m256 r0lo = _mm256_setzero_ps(), r0hi = _mm256_setzero_ps();
      __m256 r1lo = _mm256_setzero_ps(), r1hi = _mm256_setzero_ps();
      __m256 r2lo = _mm256_setzero_ps(), r2hi = _mm256_setzero_ps();
      __m256 r3lo = _mm256_setzero_ps(), r3hi = _mm256_setzero_ps();
      for (int kk = 0; kk < k; ++kk) {
        const float* b_line = panel + static_cast<size_t>(kk) * kGemmPanel;
        const __m256 blo = _mm256_loadu_ps(b_line);
        const __m256 bhi = _mm256_loadu_ps(b_line + 8);
        __m256 av = _mm256_set1_ps(a0[kk]);
        r0lo = _mm256_add_ps(r0lo, _mm256_mul_ps(av, blo));
        r0hi = _mm256_add_ps(r0hi, _mm256_mul_ps(av, bhi));
        av = _mm256_set1_ps(a1[kk]);
        r1lo = _mm256_add_ps(r1lo, _mm256_mul_ps(av, blo));
        r1hi = _mm256_add_ps(r1hi, _mm256_mul_ps(av, bhi));
        av = _mm256_set1_ps(a2[kk]);
        r2lo = _mm256_add_ps(r2lo, _mm256_mul_ps(av, blo));
        r2hi = _mm256_add_ps(r2hi, _mm256_mul_ps(av, bhi));
        av = _mm256_set1_ps(a3[kk]);
        r3lo = _mm256_add_ps(r3lo, _mm256_mul_ps(av, blo));
        r3hi = _mm256_add_ps(r3hi, _mm256_mul_ps(av, bhi));
      }
      const int j0 = p * kGemmPanel;
      const int width = std::min(kGemmPanel, n - j0);
      float* c_row = c + static_cast<size_t>(i) * n + j0;
      StorePanel(c_row, width, r0lo, r0hi, accumulate);
      StorePanel(c_row + n, width, r1lo, r1hi, accumulate);
      StorePanel(c_row + 2 * static_cast<size_t>(n), width, r2lo, r2hi,
                 accumulate);
      StorePanel(c_row + 3 * static_cast<size_t>(n), width, r3lo, r3hi,
                 accumulate);
    }
  }
  for (; i < row_end; ++i) {
    const float* a_row = a + static_cast<size_t>(i) * k;
    float* c_row = c + static_cast<size_t>(i) * n;
    for (int p = 0; p < panels; ++p) {
      const float* panel = packed_b + static_cast<size_t>(p) * k * kGemmPanel;
      __m256 lo = _mm256_setzero_ps();
      __m256 hi = _mm256_setzero_ps();
      for (int kk = 0; kk < k; ++kk) {
        const float* b_line = panel + static_cast<size_t>(kk) * kGemmPanel;
        const __m256 av = _mm256_set1_ps(a_row[kk]);
        lo = _mm256_add_ps(lo, _mm256_mul_ps(av, _mm256_loadu_ps(b_line)));
        hi = _mm256_add_ps(hi, _mm256_mul_ps(av, _mm256_loadu_ps(b_line + 8)));
      }
      const int j0 = p * kGemmPanel;
      StorePanel(c_row + j0, std::min(kGemmPanel, n - j0), lo, hi, accumulate);
    }
  }
}

void Relu(const float* x, float* y, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // maxps(x, 0) returns 0 on NaN lanes — same as the scalar `x > 0 ? x : 0`.
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) {
    y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
}

void ReluGrad(const float* x, const float* g, float* dx, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 sel = _mm256_and_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_GT_OQ), one);
    const __m256 add = _mm256_mul_ps(_mm256_loadu_ps(g + i), sel);
    _mm256_storeu_ps(dx + i, _mm256_add_ps(_mm256_loadu_ps(dx + i), add));
  }
  for (; i < n; ++i) {
    dx[i] += g[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
  }
}

void Scale(const float* x, float s, float* y, int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), sv));
  }
  for (; i < n; ++i) {
    y[i] = x[i] * s;
  }
}

float RowMax(const float* x, int64_t n) {
  if (n < 16) {
    float m = x[0];
    for (int64_t i = 1; i < n; ++i) {
      m = std::max(m, x[i]);
    }
    return m;
  }
  __m256 acc = _mm256_loadu_ps(x);
  int64_t i = 8;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_max_ps(acc, _mm256_loadu_ps(x + i));
  }
  float lanes[8];
  _mm256_storeu_ps(lanes, acc);
  float m = lanes[0];
  for (int jj = 1; jj < 8; ++jj) {
    m = std::max(m, lanes[jj]);
  }
  for (; i < n; ++i) {
    m = std::max(m, x[i]);
  }
  return m;
}

void QuantizeS8(const float* x, float inv_scale, int8_t* q, int64_t n) {
  const __m256 sv = _mm256_set1_ps(inv_scale);
  const __m256 hi = _mm256_set1_ps(127.0f);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 r = _mm256_round_ps(_mm256_mul_ps(_mm256_loadu_ps(x + i), sv),
                               _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    r = _mm256_min_ps(r, hi);
    r = _mm256_max_ps(r, lo);
    const __m256i i32 = _mm256_cvttps_epi32(r);
    const __m128i i16 = _mm_packs_epi32(_mm256_castsi256_si128(i32),
                                        _mm256_extracti128_si256(i32, 1));
    const __m128i i8 = _mm_packs_epi16(i16, i16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i), i8);
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
      __m256i acc_lo = _mm256_setzero_si256();
      __m256i acc_hi = _mm256_setzero_si256();
      for (int kp = 0; kp < k_pairs; ++kp) {
        const int16_t a0 = a_row[2 * kp];
        const int16_t a1 = a_row[2 * kp + 1];
        const __m256i apair = _mm256_set1_epi32(
            static_cast<int32_t>(static_cast<uint16_t>(a0)) |
            (static_cast<int32_t>(static_cast<uint16_t>(a1)) << 16));
        const int8_t* b_line =
            panel + static_cast<size_t>(kp) * kGemmPanel * kQuantKUnroll;
        // 32 bytes = 16 (k, k+1) pairs = all 16 columns; widen each half to
        // int16 and madd: lane j gets b[k][j]*a0 + b[k+1][j]*a1 exactly.
        const __m256i line =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_line));
        acc_lo = _mm256_add_epi32(
            acc_lo, _mm256_madd_epi16(
                        _mm256_cvtepi8_epi16(_mm256_castsi256_si128(line)),
                        apair));
        acc_hi = _mm256_add_epi32(
            acc_hi, _mm256_madd_epi16(
                        _mm256_cvtepi8_epi16(_mm256_extracti128_si256(line, 1)),
                        apair));
      }
      const int j0 = p * kGemmPanel;
      const int width = std::min(kGemmPanel, n - j0);
      int32_t* out = c_row + j0;
      if (width == kGemmPanel) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), acc_lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8), acc_hi);
      } else {
        int32_t tmp[kGemmPanel];
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(tmp), acc_lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(tmp + 8), acc_hi);
        for (int jj = 0; jj < width; ++jj) {
          out[jj] = tmp[jj];
        }
      }
    }
  }
}

}  // namespace

namespace internal {

const KernelBackend* Avx2Backend() {
  static const KernelBackend backend = {
      .name = "avx2",
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

const KernelBackend* Avx2Backend() { return nullptr; }

}  // namespace adamel::nn::kernels::internal

#endif
