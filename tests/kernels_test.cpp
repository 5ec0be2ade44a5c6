// Parity and contract tests for the kernel dispatch layer (src/nn/kernels).
//
// The load-bearing property: every backend (scalar, SSE, AVX2) produces
// bitwise-identical results for the exact kernels — fp32 GEMM, relu,
// relu_grad, scale, row_max, quantize_s8, int8 GEMM — because SIMD lanes
// mirror the scalar loop's operation order and no FMA contraction is
// allowed. The polynomial transcendentals (exp/tanh/sigmoid) are
// backend-invariant bitwise but only approximate libm, to a documented
// tolerance. The scalar backend is compiled with auto-vectorization off, so
// these comparisons diff SIMD code against genuinely scalar IEEE
// arithmetic.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/kernels/kernels.h"
#include "nn/quantize.h"

namespace adamel {
namespace {

namespace kernels = nn::kernels;

std::vector<float> RandomVector(int64_t n, float scale, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.Normal() * scale;
  }
  return v;
}

// Backends other than scalar that this machine can run.
std::vector<const kernels::KernelBackend*> SimdBackends() {
  std::vector<const kernels::KernelBackend*> backends;
  for (const kernels::Isa isa : kernels::AvailableIsas()) {
    if (isa != kernels::Isa::kScalar) {
      backends.push_back(kernels::BackendFor(isa));
    }
  }
  return backends;
}

const kernels::KernelBackend& Scalar() {
  return *kernels::BackendFor(kernels::Isa::kScalar);
}

TEST(KernelDispatchTest, ScalarAlwaysAvailable) {
  const std::vector<kernels::Isa> isas = kernels::AvailableIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), kernels::Isa::kScalar);
  EXPECT_NE(kernels::BackendFor(kernels::Isa::kScalar), nullptr);
  EXPECT_STREQ(kernels::IsaName(kernels::Isa::kScalar), "scalar");
}

TEST(KernelDispatchTest, SetBackendForTestingPinsActive) {
  const kernels::Isa original = kernels::ActiveIsa();
  for (const kernels::Isa isa : kernels::AvailableIsas()) {
    kernels::SetBackendForTesting(isa);
    EXPECT_EQ(kernels::ActiveIsa(), isa);
    EXPECT_STREQ(kernels::Active().name, kernels::IsaName(isa));
  }
  kernels::ResetBackendForTesting();
  EXPECT_EQ(kernels::ActiveIsa(), original);
}

// -- fp32 GEMM ---------------------------------------------------------------

// Shapes chosen to cover full panels, a ragged final panel (n % 16 != 0),
// sub-panel n, and k values that stress the accumulation loop.
struct GemmShape {
  int m, k, n;
};
const GemmShape kGemmShapes[] = {{1, 1, 1},   {3, 5, 7},    {4, 17, 16},
                                 {8, 32, 33}, {5, 300, 48}, {2, 64, 256},
                                 {7, 2, 31}};

TEST(GemmF32Test, ScalarMatchesNaiveReference) {
  // The scalar backend must compute c[i][j] = sum_k a[i][k] * b[k][j] with
  // k ascending, one mul and one add per step — the same sequence as this
  // naive loop, hence bitwise equality.
  for (const GemmShape& s : kGemmShapes) {
    const std::vector<float> a =
        RandomVector(int64_t{s.m} * s.k, 1.0f, 101 + s.n);
    const std::vector<float> b =
        RandomVector(int64_t{s.k} * s.n, 1.0f, 202 + s.m);
    const std::vector<float> packed = kernels::PackPanelsF32(b.data(), s.k, s.n);
    std::vector<float> c(int64_t{s.m} * s.n, 0.0f);
    Scalar().gemm_f32_block(a.data(), 0, s.m, s.k, s.n, packed.data(),
                            c.data(), /*accumulate=*/false);
    for (int i = 0; i < s.m; ++i) {
      for (int j = 0; j < s.n; ++j) {
        float acc = 0.0f;
        for (int kk = 0; kk < s.k; ++kk) {
          acc += a[int64_t{i} * s.k + kk] * b[int64_t{kk} * s.n + j];
        }
        ASSERT_EQ(c[int64_t{i} * s.n + j], acc)
            << "m=" << s.m << " k=" << s.k << " n=" << s.n << " at (" << i
            << "," << j << ")";
      }
    }
  }
}

TEST(GemmF32Test, SimdBackendsMatchScalarBitwise) {
  for (const GemmShape& s : kGemmShapes) {
    const std::vector<float> a =
        RandomVector(int64_t{s.m} * s.k, 1.0f, 11 + s.k);
    const std::vector<float> b =
        RandomVector(int64_t{s.k} * s.n, 1.0f, 22 + s.n);
    const std::vector<float> packed = kernels::PackPanelsF32(b.data(), s.k, s.n);
    for (const bool accumulate : {false, true}) {
      std::vector<float> expected =
          RandomVector(int64_t{s.m} * s.n, 0.5f, 33);
      Scalar().gemm_f32_block(a.data(), 0, s.m, s.k, s.n, packed.data(),
                              expected.data(), accumulate);
      for (const kernels::KernelBackend* backend : SimdBackends()) {
        std::vector<float> c = RandomVector(int64_t{s.m} * s.n, 0.5f, 33);
        backend->gemm_f32_block(a.data(), 0, s.m, s.k, s.n, packed.data(),
                                c.data(), accumulate);
        ASSERT_EQ(std::memcmp(c.data(), expected.data(),
                              c.size() * sizeof(float)),
                  0)
            << backend->name << " m=" << s.m << " k=" << s.k << " n=" << s.n
            << " accumulate=" << accumulate;
      }
    }
  }
}

TEST(GemmF32Test, RowRangeOnlyTouchesItsRows) {
  // The parallel GEMM hands each worker a row range; a backend writing
  // outside [row_begin, row_end) would race.
  const int m = 8, k = 40, n = 33;
  const std::vector<float> a = RandomVector(int64_t{m} * k, 1.0f, 5);
  const std::vector<float> b = RandomVector(int64_t{k} * n, 1.0f, 6);
  const std::vector<float> packed = kernels::PackPanelsF32(b.data(), k, n);
  for (const kernels::Isa isa : kernels::AvailableIsas()) {
    const kernels::KernelBackend& backend = *kernels::BackendFor(isa);
    std::vector<float> whole(int64_t{m} * n, 0.0f);
    backend.gemm_f32_block(a.data(), 0, m, k, n, packed.data(), whole.data(),
                           false);
    std::vector<float> pieces(int64_t{m} * n, 0.0f);
    backend.gemm_f32_block(a.data(), 0, 3, k, n, packed.data(), pieces.data(),
                           false);
    backend.gemm_f32_block(a.data(), 3, 7, k, n, packed.data(), pieces.data(),
                           false);
    backend.gemm_f32_block(a.data(), 7, 8, k, n, packed.data(), pieces.data(),
                           false);
    EXPECT_EQ(std::memcmp(whole.data(), pieces.data(),
                          whole.size() * sizeof(float)),
              0)
        << backend.name;
  }
}

// -- exact elementwise -------------------------------------------------------

TEST(ElementwiseTest, ReluMatchesScalarBitwiseIncludingSpecials) {
  std::vector<float> x = RandomVector(1003, 2.0f, 7);
  x[0] = 0.0f;
  x[1] = -0.0f;
  x[2] = std::numeric_limits<float>::infinity();
  x[3] = -std::numeric_limits<float>::infinity();
  x[4] = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> expected(x.size());
  Scalar().relu(x.data(), expected.data(), x.size());
  // Scalar semantics: x > 0 ? x : 0 — NaN and -0.0 both map to +0.0.
  EXPECT_EQ(expected[4], 0.0f);
  for (const kernels::KernelBackend* backend : SimdBackends()) {
    std::vector<float> y(x.size());
    backend->relu(x.data(), y.data(), x.size());
    EXPECT_EQ(std::memcmp(y.data(), expected.data(), y.size() * sizeof(float)),
              0)
        << backend->name;
  }
}

TEST(ElementwiseTest, ReluGradAccumulatesAndMatchesScalar) {
  std::vector<float> x = RandomVector(517, 2.0f, 8);
  x[0] = 0.0f;
  x[1] = -0.0f;
  const std::vector<float> g = RandomVector(x.size(), 1.0f, 9);
  std::vector<float> expected = RandomVector(x.size(), 0.5f, 10);
  Scalar().relu_grad(x.data(), g.data(), expected.data(), x.size());
  for (const kernels::KernelBackend* backend : SimdBackends()) {
    std::vector<float> dx = RandomVector(x.size(), 0.5f, 10);
    backend->relu_grad(x.data(), g.data(), dx.data(), x.size());
    EXPECT_EQ(
        std::memcmp(dx.data(), expected.data(), dx.size() * sizeof(float)), 0)
        << backend->name;
  }
  // Semantics: dx += g where x > 0, dx unchanged elsewhere.
  std::vector<float> dx(4, 1.0f);
  const float xs[4] = {2.0f, -2.0f, 0.0f, 3.0f};
  const float gs[4] = {0.5f, 0.5f, 0.5f, -1.0f};
  Scalar().relu_grad(xs, gs, dx.data(), 4);
  EXPECT_EQ(dx[0], 1.5f);
  EXPECT_EQ(dx[1], 1.0f);
  EXPECT_EQ(dx[2], 1.0f);
  EXPECT_EQ(dx[3], 0.0f);
}

TEST(ElementwiseTest, ScaleAndRowMaxMatchScalarBitwise) {
  const std::vector<float> x = RandomVector(777, 3.0f, 11);
  std::vector<float> expected(x.size());
  Scalar().scale(x.data(), 0.37f, expected.data(), x.size());
  const float expected_max = Scalar().row_max(x.data(), x.size());
  for (const kernels::KernelBackend* backend : SimdBackends()) {
    std::vector<float> y(x.size());
    backend->scale(x.data(), 0.37f, y.data(), x.size());
    EXPECT_EQ(std::memcmp(y.data(), expected.data(), y.size() * sizeof(float)),
              0)
        << backend->name;
    EXPECT_EQ(backend->row_max(x.data(), x.size()), expected_max)
        << backend->name;
  }
  // Short rows exercise the scalar tail alone.
  for (int64_t n = 1; n <= 9; ++n) {
    const float short_max = Scalar().row_max(x.data(), n);
    for (const kernels::KernelBackend* backend : SimdBackends()) {
      EXPECT_EQ(backend->row_max(x.data(), n), short_max)
          << backend->name << " n=" << n;
    }
  }
}

// -- int8 quantization -------------------------------------------------------

TEST(QuantizeTest, RoundsToNearestEvenAndSaturates) {
  const float x[] = {0.5f,  1.5f,  2.5f,  -0.5f, -1.5f,
                     -2.5f, 126.6f, 1000.0f, -1000.0f, 0.0f};
  int8_t q[10];
  for (const kernels::Isa isa : kernels::AvailableIsas()) {
    kernels::BackendFor(isa)->quantize_s8(x, 1.0f, q, 10);
    EXPECT_EQ(q[0], 0) << kernels::IsaName(isa);   // 0.5 -> even 0
    EXPECT_EQ(q[1], 2) << kernels::IsaName(isa);   // 1.5 -> even 2
    EXPECT_EQ(q[2], 2) << kernels::IsaName(isa);   // 2.5 -> even 2
    EXPECT_EQ(q[3], 0) << kernels::IsaName(isa);
    EXPECT_EQ(q[4], -2) << kernels::IsaName(isa);
    EXPECT_EQ(q[5], -2) << kernels::IsaName(isa);
    EXPECT_EQ(q[6], 127) << kernels::IsaName(isa);
    EXPECT_EQ(q[7], 127) << kernels::IsaName(isa);   // saturate high
    EXPECT_EQ(q[8], -127) << kernels::IsaName(isa);  // symmetric low
    EXPECT_EQ(q[9], 0) << kernels::IsaName(isa);
  }
}

TEST(QuantizeTest, BackendsAgreeBitwiseOnRandomData) {
  const std::vector<float> x = RandomVector(4099, 5.0f, 13);
  const float inv_scale = 127.0f / 16.0f;
  std::vector<int8_t> expected(x.size());
  Scalar().quantize_s8(x.data(), inv_scale, expected.data(), x.size());
  for (const kernels::KernelBackend* backend : SimdBackends()) {
    std::vector<int8_t> q(x.size());
    backend->quantize_s8(x.data(), inv_scale, q.data(), x.size());
    EXPECT_EQ(std::memcmp(q.data(), expected.data(), q.size()), 0)
        << backend->name;
  }
}

TEST(QuantizeTest, DequantizeRoundTripErrorBounded) {
  // Symmetric scheme: |x - q * scale| <= scale / 2 for x inside the
  // representable range [-127*scale, 127*scale].
  const std::vector<float> x = RandomVector(2000, 3.0f, 14);
  const float scale = nn::SymmetricScale(nn::MaxAbs(x.data(), x.size()));
  std::vector<int8_t> q(x.size());
  Scalar().quantize_s8(x.data(), 1.0f / scale, q.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::abs(x[i] - q[i] * scale), scale * 0.5f + 1e-6f) << i;
  }
}

TEST(QuantizeTest, SymmetricScaleOfAllZerosIsFinite) {
  // An all-zero tensor must not produce a zero (or inf) scale — the
  // fallback is 1.0, and every value quantizes to 0 exactly.
  const std::vector<float> zeros(16, 0.0f);
  EXPECT_EQ(nn::MaxAbs(zeros.data(), zeros.size()), 0.0f);
  EXPECT_EQ(nn::SymmetricScale(0.0f), 1.0f);
}

// -- int8 GEMM ---------------------------------------------------------------

TEST(GemmS8Test, MatchesIntegerReferenceOnEveryBackend) {
  // Int32 accumulation is exact, so every backend must equal a plain
  // integer reference — this validates the pair-interleaved packing too.
  Rng rng(15);
  for (const GemmShape& s : kGemmShapes) {
    std::vector<int8_t> a(int64_t{s.m} * s.k);
    std::vector<int8_t> b(int64_t{s.k} * s.n);
    for (int8_t& v : a) {
      v = static_cast<int8_t>(static_cast<int>(rng.Uniform() * 254) - 127);
    }
    for (int8_t& v : b) {
      v = static_cast<int8_t>(static_cast<int>(rng.Uniform() * 254) - 127);
    }
    const std::vector<int8_t> packed = kernels::PackPanelsS8(b.data(), s.k, s.n);
    const int k_padded =
        (s.k + kernels::kQuantKUnroll - 1) / kernels::kQuantKUnroll *
        kernels::kQuantKUnroll;
    std::vector<int8_t> a_padded(int64_t{s.m} * k_padded, 0);
    for (int i = 0; i < s.m; ++i) {
      std::memcpy(a_padded.data() + int64_t{i} * k_padded,
                  a.data() + int64_t{i} * s.k, s.k);
    }
    std::vector<int32_t> reference(int64_t{s.m} * s.n, 0);
    for (int i = 0; i < s.m; ++i) {
      for (int j = 0; j < s.n; ++j) {
        int32_t acc = 0;
        for (int kk = 0; kk < s.k; ++kk) {
          acc += static_cast<int32_t>(a[int64_t{i} * s.k + kk]) *
                 static_cast<int32_t>(b[int64_t{kk} * s.n + j]);
        }
        reference[int64_t{i} * s.n + j] = acc;
      }
    }
    for (const kernels::Isa isa : kernels::AvailableIsas()) {
      std::vector<int32_t> c(int64_t{s.m} * s.n, -1);
      kernels::BackendFor(isa)->gemm_s8_block(a_padded.data(), 0, s.m,
                                              k_padded, s.n, packed.data(),
                                              c.data());
      ASSERT_EQ(std::memcmp(c.data(), reference.data(),
                            c.size() * sizeof(int32_t)),
                0)
          << kernels::IsaName(isa) << " m=" << s.m << " k=" << s.k
          << " n=" << s.n;
    }
  }
}

TEST(QuantizedGemmTest, ApproximatesFp32WithinQuantizationError) {
  const int m = 9, k = 37, n = 21;
  const std::vector<float> a = RandomVector(int64_t{m} * k, 0.7f, 16);
  const std::vector<float> w = RandomVector(int64_t{k} * n, 0.5f, 17);
  const std::vector<float> bias = RandomVector(n, 0.3f, 18);
  const nn::QuantizedGemmB qb = nn::QuantizeForGemm(w.data(), k, n);
  const float a_scale = nn::SymmetricScale(nn::MaxAbs(a.data(), a.size()));
  std::vector<float> c(int64_t{m} * n);
  nn::QuantizedGemm(a.data(), m, k, a_scale, qb, bias.data(), c.data());
  // Per-element error bound: each operand is off by at most half a step, so
  // |err| <= 0.5*a_scale*sum|w_col| + 0.5*w_scale*sum|a_row| (+ cross term,
  // negligible). Use the loose version with both sums maximized.
  float max_abs_a = 0.0f, max_abs_w = 0.0f;
  for (float v : a) max_abs_a = std::max(max_abs_a, std::abs(v));
  for (float v : w) max_abs_w = std::max(max_abs_w, std::abs(v));
  const float bound =
      0.5f * k * (a_scale * max_abs_w + qb.scale * max_abs_a) +
      0.25f * k * a_scale * qb.scale;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float exact = bias[j];
      for (int kk = 0; kk < k; ++kk) {
        exact += a[int64_t{i} * k + kk] * w[int64_t{kk} * n + j];
      }
      EXPECT_NEAR(c[int64_t{i} * n + j], exact, bound)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(QuantizedGemmTest, ResultIsBackendInvariantBitwise) {
  // The whole quantized pipeline is integer-exact between quantize and
  // dequantize, so even the final float outputs agree bitwise across
  // backends.
  const int m = 6, k = 33, n = 19;
  const std::vector<float> a = RandomVector(int64_t{m} * k, 0.7f, 19);
  const std::vector<float> w = RandomVector(int64_t{k} * n, 0.5f, 20);
  const nn::QuantizedGemmB qb = nn::QuantizeForGemm(w.data(), k, n);
  const float a_scale = nn::SymmetricScale(nn::MaxAbs(a.data(), a.size()));
  std::vector<float> reference(int64_t{m} * n);
  kernels::SetBackendForTesting(kernels::Isa::kScalar);
  nn::QuantizedGemm(a.data(), m, k, a_scale, qb, nullptr, reference.data());
  for (const kernels::Isa isa : kernels::AvailableIsas()) {
    kernels::SetBackendForTesting(isa);
    std::vector<float> c(int64_t{m} * n);
    nn::QuantizedGemm(a.data(), m, k, a_scale, qb, nullptr, c.data());
    EXPECT_EQ(std::memcmp(c.data(), reference.data(),
                          c.size() * sizeof(float)),
              0)
        << kernels::IsaName(isa);
  }
  kernels::ResetBackendForTesting();
}

// -- packing -----------------------------------------------------------------

TEST(PackingTest, PackPanelsF32LayoutAndZeroPadding) {
  const int k = 3, n = 18;  // one full panel + a ragged 2-column panel
  std::vector<float> src(int64_t{k} * n);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<float>(i + 1);
  }
  const std::vector<float> packed = kernels::PackPanelsF32(src.data(), k, n);
  const int panels = 2;
  ASSERT_EQ(packed.size(),
            static_cast<size_t>(panels) * k * kernels::kGemmPanel);
  for (int p = 0; p < panels; ++p) {
    for (int kk = 0; kk < k; ++kk) {
      for (int jj = 0; jj < kernels::kGemmPanel; ++jj) {
        const int j = p * kernels::kGemmPanel + jj;
        const float expected = j < n ? src[int64_t{kk} * n + j] : 0.0f;
        ASSERT_EQ(packed[(int64_t{p} * k + kk) * kernels::kGemmPanel + jj],
                  expected)
            << "panel " << p << " k " << kk << " lane " << jj;
      }
    }
  }
}

TEST(PackingTest, TransposedPackMatchesPackOfTranspose) {
  const int k = 7, n = 20;
  const std::vector<float> src = RandomVector(int64_t{n} * k, 1.0f, 21);
  std::vector<float> transposed(int64_t{k} * n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < k; ++c) {
      transposed[int64_t{c} * n + r] = src[int64_t{r} * k + c];
    }
  }
  EXPECT_EQ(kernels::PackPanelsTransposedF32(src.data(), k, n),
            kernels::PackPanelsF32(transposed.data(), k, n));
}

}  // namespace
}  // namespace adamel
