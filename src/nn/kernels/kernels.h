#ifndef ADAMEL_NN_KERNELS_KERNELS_H_
#define ADAMEL_NN_KERNELS_KERNELS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace adamel::nn::kernels {

/// Instruction sets a kernel backend may target. The dispatcher picks the
/// widest one the CPU supports at first use; tests and benches can pin a
/// specific backend with `SetBackendForTesting`.
enum class Isa {
  kScalar = 0,  // portable C++, no intrinsics — the reference backend
  kSse = 1,     // SSE4.1 (128-bit lanes)
  kAvx2 = 2,    // AVX2 (256-bit lanes)
};

/// Stable lowercase name ("scalar", "sse", "avx2") for logs and JSON.
const char* IsaName(Isa isa);

/// Width of the fp32 GEMM panel every backend consumes: packed B holds
/// panels of this many output columns (zero-padded past N). 16 floats is one
/// cache line; AVX2 reads it as two 256-bit lanes, SSE as four 128-bit
/// lanes, scalar as a plain array.
inline constexpr int kGemmPanel = 16;

/// Column pair-interleave factor of the int8 packed layout: panels of
/// `kGemmPanel` columns where consecutive k-values are interleaved in pairs
/// (b[k][j], b[k+1][j]) so 16-bit multiply-accumulate instructions can sum
/// adjacent products exactly. K is rounded up to a multiple of 2 with zero
/// padding.
inline constexpr int kQuantKUnroll = 2;

/// One kernel backend: a table of function pointers `nn/ops.cc`, the
/// graph-free inference forward (core/inference.h) and the int8 GEMM call
/// through, so op code never names an ISA.
///
/// Exactness contract (enforced by tests/kernels_test.cpp): every entry
/// produces bitwise-identical results on every backend. Each output element
/// is computed by the same sequence of IEEE operations in the same order
/// (SIMD lanes mirror the scalar loop; multiplies and adds stay separate
/// instructions — no FMA contraction, which is why the SIMD translation
/// units compile with `-ffp-contract=off`). `row_max` assumes non-NaN input
/// (a NaN row poisons the downstream softmax identically either way).
///
/// The table holds no transcendentals: exp/tanh/sigmoid are scalar libm
/// calls in nn/ops.cc and core/inference.cc, so they cannot vary with the
/// backend.
struct KernelBackend {
  const char* name;

  // -- fp32 GEMM -------------------------------------------------------------
  // Rows [row_begin, row_end) of C (m x n): c_row (+)= a_row * packed_b,
  // where packed_b is PackPanelsF32 output for B (k x n). `accumulate`
  // selects += (gradients) vs =.
  void (*gemm_f32_block)(const float* a, int64_t row_begin, int64_t row_end,
                         int k, int n, const float* packed_b, float* c,
                         bool accumulate);

  // -- exact elementwise -----------------------------------------------------
  void (*relu)(const float* x, float* y, int64_t n);
  // dx[i] += g[i] * (x[i] > 0)
  void (*relu_grad)(const float* x, const float* g, float* dx, int64_t n);
  void (*scale)(const float* x, float s, float* y, int64_t n);
  float (*row_max)(const float* x, int64_t n);  // n >= 1

  // -- int8 symmetric quantization -------------------------------------------
  // q[i] = clamp(round_to_nearest_even(x[i] * inv_scale), -127, 127)
  void (*quantize_s8)(const float* x, float inv_scale, int8_t* q, int64_t n);
  // Rows [row_begin, row_end) of C (m x n, int32): c = a * packed_b with
  // int32 accumulation (exact on every backend). packed_b comes from
  // PackPanelsS8; k_padded = RoundUp(k, kQuantKUnroll) is the packed k
  // extent, while `a` rows are also padded to k_padded (zeros).
  void (*gemm_s8_block)(const int8_t* a, int64_t row_begin, int64_t row_end,
                        int k_padded, int n, const int8_t* packed_b,
                        int32_t* c);
};

/// The backend picked for this process: widest ISA the CPU supports, unless
/// overridden by `ADAMEL_FORCE_SCALAR=1` / `ADAMEL_KERNEL_BACKEND=scalar|
/// sse|avx2` in the environment (read once at first use) or by
/// `SetBackendForTesting`. Never returns null.
const KernelBackend& Active();

/// ISA of `Active()`.
Isa ActiveIsa();

/// Returns the backend for `isa`, or null when this build/CPU cannot run it
/// (non-x86 build, or the CPU lacks the ISA). `kScalar` is always available.
const KernelBackend* BackendFor(Isa isa);

/// Pins `Active()` to a specific backend (must be available). Intended for
/// the parity tests and bench_kernels; not thread-safe against concurrently
/// running kernels, so call it only between workloads.
void SetBackendForTesting(Isa isa);

/// Reverts `SetBackendForTesting` to the environment-driven default.
void ResetBackendForTesting();

/// ISAs usable in this process, widest last (always includes kScalar).
std::vector<Isa> AvailableIsas();

// -- Packing ------------------------------------------------------------------

/// Packs `src` (k x n, row-major) into fp32 panels of kGemmPanel columns:
/// packed[p][kk][jj] = src[kk][p*kGemmPanel + jj], zero-padded past n.
std::vector<float> PackPanelsF32(const float* src, int k, int n);

/// Packs the transpose of `src` (src is n x k row-major; the packed operand
/// is src^T with shape k x n).
std::vector<float> PackPanelsTransposedF32(const float* src, int k, int n);

/// Packs int8 `src` (k x n, row-major) into the pair-interleaved panel
/// layout consumed by `gemm_s8_block`:
/// packed[p][kk/2][jj][2] = {src[kk][j], src[kk+1][j]} with zero padding
/// past n and past k (k is padded to a multiple of kQuantKUnroll).
std::vector<int8_t> PackPanelsS8(const int8_t* src, int k, int n);

}  // namespace adamel::nn::kernels

#endif  // ADAMEL_NN_KERNELS_KERNELS_H_
