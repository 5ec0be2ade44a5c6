// Microkernel benchmark: times every kernel backend this machine can run
// (scalar, SSE, AVX2) on the packed fp32 GEMM, the int8 GEMM, and the
// elementwise ops, and writes <out>/BENCH_kernels.json.
//
// Reported units: GFLOP/s and flops/cycle (rdtsc) for the GEMMs, GB/s for
// the bandwidth-bound elementwise ops. `speedup_vs_scalar` compares each
// backend against the scalar reference on the same workload — the
// acceptance bar for this layer is >= 2x on the packed fp32 GEMM with AVX2.
// The exactness contract (bitwise-equal results across backends) is
// enforced by tests/kernels_test.cpp, so this bench only reports time.
//
// One workload ("matmul_via_ops") goes through nn::MatMul on the *active*
// backend instead of calling the kernel table directly, so the emitted
// telemetry block carries the real nn.gemm.calls / nn.gemm.flops counters.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>  // __rdtsc for the flops/cycle column
#endif

#include "bench/harness.h"
#include "common/rng.h"
#include "eval/report.h"
#include "nn/kernels/kernels.h"
#include "nn/ops.h"
#include "nn/quantize.h"
#include "nn/tensor.h"
#include "obs/clock.h"

namespace {

using namespace adamel;
namespace kernels = adamel::nn::kernels;

uint64_t ReadCycles() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return 0;
#endif
}

struct Timing {
  double seconds = 0.0;  // median wall-clock of the timed calls
  double cycles = 0.0;   // rdtsc cycles of the median call (0 off-x86)
};

// Median wall-clock seconds (and matching rdtsc cycles) of `repeats` timed
// calls after one warmup.
Timing Median(int repeats, const std::function<void()>& fn) {
  fn();  // Warmup: touch pages, settle frequency.
  std::vector<std::pair<double, double>> times;
  times.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    const uint64_t c0 = ReadCycles();
    const int64_t t0 = obs::NowNanos();
    fn();
    const int64_t t1 = obs::NowNanos();
    const uint64_t c1 = ReadCycles();
    times.push_back({static_cast<double>(t1 - t0) * 1e-9,
                     static_cast<double>(c1 - c0)});
  }
  std::sort(times.begin(), times.end());
  const auto& mid = times[times.size() / 2];
  return {mid.first, mid.second};
}

struct Measurement {
  std::string workload;
  std::string backend;
  double seconds = 0.0;
  double gflops = 0.0;           // 0 when the workload is bandwidth-bound
  double flops_per_cycle = 0.0;  // 0 off-x86 or bandwidth-bound
  double gbps = 0.0;             // 0 for the GEMMs
};

Measurement MeasureFlops(const std::string& workload,
                         const std::string& backend, double flops, int repeats,
                         const std::function<void()>& fn) {
  const Timing t = Median(repeats, fn);
  Measurement m;
  m.workload = workload;
  m.backend = backend;
  m.seconds = t.seconds;
  m.gflops = t.seconds > 0.0 ? flops / t.seconds * 1e-9 : 0.0;
  m.flops_per_cycle = t.cycles > 0.0 ? flops / t.cycles : 0.0;
  return m;
}

Measurement MeasureBytes(const std::string& workload,
                         const std::string& backend, double bytes, int repeats,
                         const std::function<void()>& fn) {
  const Timing t = Median(repeats, fn);
  Measurement m;
  m.workload = workload;
  m.backend = backend;
  m.seconds = t.seconds;
  m.gbps = t.seconds > 0.0 ? bytes / t.seconds * 1e-9 : 0.0;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  bench::WarnIfError(eval::EnsureDirectory(options.output_dir),
                     "creating output directory " + options.output_dir);

  // GEMM shape mirrors bench_parallel's training-shaped matmul; elementwise
  // arrays are sized past L2 so the numbers are honest stream bandwidth.
  const int m = 256, k = 300, n = 256;
  const int64_t elems = options.quick ? (1 << 20) : (1 << 22);
  const int repeats = options.quick ? 11 : 31;
  const double gemm_flops = 2.0 * m * k * n;

  Rng rng(17);
  const nn::Tensor a_t = nn::Tensor::RandomNormal(m, k, 1.0f, &rng);
  const nn::Tensor b_t = nn::Tensor::RandomNormal(k, n, 1.0f, &rng);
  const std::vector<float> packed_b = kernels::PackPanelsF32(
      b_t.data().data(), k, n);
  std::vector<float> c(static_cast<size_t>(m) * n);

  // Int8 operands: quantize the same A/B the fp32 GEMM uses.
  const nn::QuantizedGemmB qb = nn::QuantizeForGemm(b_t.data().data(), k, n);
  const float a_scale =
      nn::SymmetricScale(nn::MaxAbs(a_t.data().data(), a_t.data().size()));
  std::vector<int8_t> aq(static_cast<size_t>(m) * qb.k_padded, 0);
  {
    const kernels::KernelBackend& scalar =
        *kernels::BackendFor(kernels::Isa::kScalar);
    for (int i = 0; i < m; ++i) {
      scalar.quantize_s8(a_t.data().data() + static_cast<int64_t>(i) * k,
                         1.0f / a_scale, aq.data() + i * qb.k_padded, k);
    }
  }
  std::vector<int32_t> ci(static_cast<size_t>(m) * n);

  std::vector<float> x(elems), y(elems);
  for (int64_t i = 0; i < elems; ++i) {
    x[i] = rng.Normal() * 2.0f;
  }
  std::vector<int8_t> q8(elems);

  std::vector<Measurement> results;
  const std::string active = kernels::Active().name;
  for (const kernels::Isa isa : kernels::AvailableIsas()) {
    const kernels::KernelBackend& backend = *kernels::BackendFor(isa);
    const std::string name = backend.name;
    std::fprintf(stderr, "[kernels] backend=%s...\n", name.c_str());

    results.push_back(MeasureFlops(
        "gemm_f32_256x300x256", name, gemm_flops, repeats, [&] {
          backend.gemm_f32_block(a_t.data().data(), 0, m, k, n,
                                 packed_b.data(), c.data(),
                                 /*accumulate=*/false);
        }));
    results.push_back(MeasureFlops(
        "gemm_s8_256x300x256", name, gemm_flops, repeats, [&] {
          backend.gemm_s8_block(aq.data(), 0, m, qb.k_padded, n,
                                qb.packed.data(), ci.data());
        }));
    results.push_back(MeasureBytes("relu_4m", name, 8.0 * elems, repeats, [&] {
      backend.relu(x.data(), y.data(), elems);
    }));
    results.push_back(
        MeasureBytes("quantize_s8_4m", name, 5.0 * elems, repeats, [&] {
          backend.quantize_s8(x.data(), 1.0f / 4.0f, q8.data(), elems);
        }));
  }

  // One workload through the op layer on the active backend so the
  // telemetry block carries real nn.gemm.* counters.
  results.push_back(
      MeasureFlops("matmul_via_ops", active, gemm_flops, repeats, [&] {
        nn::Tensor out = nn::MatMul(a_t, b_t);
        (void)out;
      }));

  auto scalar_seconds = [&](const std::string& workload) {
    for (const Measurement& r : results) {
      if (r.workload == workload && r.backend == "scalar") return r.seconds;
    }
    return 0.0;
  };
  auto find = [&](const std::string& workload, const std::string& backend) {
    for (const Measurement& r : results) {
      if (r.workload == workload && r.backend == backend) return r.seconds;
    }
    return 0.0;
  };

  const double scalar_gemm = find("gemm_f32_256x300x256", "scalar");
  const double best_gemm = [&] {
    double best = scalar_gemm;
    for (const Measurement& r : results) {
      if (r.workload == "gemm_f32_256x300x256" && r.seconds > 0.0) {
        best = std::min(best, r.seconds);
      }
    }
    return best;
  }();

  const std::string path = options.output_dir + "/BENCH_kernels.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"active_backend\": \"%s\",\n", active.c_str());
  std::fprintf(out, "  \"backends\": [");
  {
    const std::vector<kernels::Isa> isas = kernels::AvailableIsas();
    for (size_t i = 0; i < isas.size(); ++i) {
      std::fprintf(out, "\"%s\"%s", kernels::IsaName(isas[i]),
                   i + 1 < isas.size() ? ", " : "");
    }
  }
  std::fprintf(out, "],\n");
  std::fprintf(out,
               "  \"note\": \"Single-core medians. speedup_vs_scalar "
               "compares backends on the same workload; flops_per_cycle "
               "uses rdtsc and is 0 off-x86. GEMMs report GFLOP/s, "
               "elementwise ops report effective GB/s.\",\n");
  std::fprintf(out, "  \"gemm_f32_best_speedup_vs_scalar\": %.3f,\n",
               best_gemm > 0.0 && scalar_gemm > 0.0 ? scalar_gemm / best_gemm
                                                    : 0.0);
  std::fprintf(out, "  \"measurements\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Measurement& r = results[i];
    const double base = scalar_seconds(r.workload);
    std::fprintf(out,
                 "    {\"workload\": \"%s\", \"backend\": \"%s\", "
                 "\"seconds\": %.6g, \"gflops\": %.2f, "
                 "\"flops_per_cycle\": %.2f, \"gbps\": %.2f, "
                 "\"speedup_vs_scalar\": %.3f}%s\n",
                 r.workload.c_str(), r.backend.c_str(), r.seconds, r.gflops,
                 r.flops_per_cycle, r.gbps,
                 base > 0.0 && r.seconds > 0.0 ? base / r.seconds : 0.0,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  bench::EmitTelemetry(options, "kernels");
  return 0;
}
