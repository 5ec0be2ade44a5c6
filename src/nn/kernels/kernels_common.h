#ifndef ADAMEL_NN_KERNELS_KERNELS_COMMON_H_
#define ADAMEL_NN_KERNELS_KERNELS_COMMON_H_

// Shared scalar building blocks for every kernel backend.
//
// The SIMD backends are lane-for-lane translations of these functions: the
// parity contract (scalar == sse == avx2, bitwise) only holds because all
// three evaluate the same IEEE operations in the same order. Any change
// here must be mirrored in kernels_sse.cc / kernels_avx2.cc, and
// tests/kernels_test.cpp will catch a mismatch.

#include <cmath>
#include <cstdint>

namespace adamel::nn::kernels::detail {

// q = clamp(round-to-nearest-even(x * inv_scale), -127, 127). nearbyint
// under the default rounding mode matches the SSE/AVX cvtps rounding, so
// quantization is bitwise backend-invariant.
inline int8_t QuantizeOne(float x, float inv_scale) {
  const float r = std::nearbyint(x * inv_scale);
  const float c = r < 127.0f ? r : 127.0f;
  return static_cast<int8_t>(c > -127.0f ? c : -127.0f);
}

}  // namespace adamel::nn::kernels::detail

#endif  // ADAMEL_NN_KERNELS_KERNELS_COMMON_H_
