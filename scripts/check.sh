#!/usr/bin/env bash
# Tier-1 gate plus the full correctness-tooling matrix: the one definition
# of every gate. Each CI job runs one stage. Run from the repo root:
#
#   scripts/check.sh                  every stage, in the order below
#   scripts/check.sh --stage <name>   one stage
#
# Stages:
#   tier-1       warnings-as-errors build + full ctest (includes lint_repo,
#                which runs adamel_lint over src/, bench/, examples/, and
#                the serve/lifecycle conformance suites)
#   lint         adamel_lint again, standalone, so a rule violation is
#                reported even when ctest is filtered down
#   tsa          Clang -Wthread-safety build of the whole tree
#                (-DADAMEL_THREAD_SAFETY=ON): proves every
#                ADAMEL_GUARDED_BY / ADAMEL_REQUIRES lock contract in the
#                concurrent core. The analysis is Clang-only: with no
#                clang++ on PATH a full run skips it with a notice, while
#                `--stage tsa` fails
#   gallery      bench_gallery --quick smoke: enroll/search candidate
#                index must hold recall@64 >= 0.95 vs the exhaustive
#                oracle, round-trip bitwise through save/load, and serve
#                SearchAsync scores bitwise identical to offline
#                ScorePairs (the binary re-parses its own JSON and exits
#                nonzero on any gate failure)
#   scalar       ADAMEL_FORCE_SCALAR=1 full ctest against the tier-1
#                build — pins the kernel dispatch to the scalar backend,
#                proving nothing depends on SIMD being present and the
#                bitwise parity contract holds end to end
#   tsan         ThreadSanitizer build; thread-pool, parallel-ops,
#                telemetry, and serving tests (serve_test hammers the
#                micro-batcher and registry from concurrent clients;
#                deadlock_test exercises the DESIGN.md §8.4 lock-order
#                contracts with a model that re-enters the service;
#                lifecycle_test swaps models under concurrent load)
#   notelemetry  ADAMEL_TELEMETRY=OFF build, full ctest — proves the
#                telemetry macros compile to no-ops and nothing depends
#                on them being live
#   asan         AddressSanitizer build; serialization/checkpoint tests
#                (the code that parses untrusted bytes from disk) plus
#                kernels_test (hand-vectorized loads/stores and packing),
#                gallery_test, and the corruption sweeps over checkpoint
#                and gallery index files
#   ubsan        UndefinedBehaviorSanitizer build (-fno-sanitize-recover),
#                full ctest
#   debug        ADAMEL_DEBUG_CHECKS=ON build, full ctest — enables the
#                ADAMEL_DCHECK family, post-op NaN/Inf screening, and the
#                autograd-graph validators
#
# Every stage configures and builds what it runs, so each one also works
# alone; tier-1, lint, gallery and scalar share the tier-1 build tree.
#
# Environment:
#   BUILD_DIR             main build tree (default: build)
#   TSA_BUILD_DIR         clang thread-safety build tree (default: build-tsa)
#   TSAN_BUILD_DIR        sanitizer build tree (default: build-tsan)
#   NOTELEMETRY_BUILD_DIR telemetry-off build tree (default: build-notel)
#   ASAN_BUILD_DIR        sanitizer build tree (default: build-asan)
#   UBSAN_BUILD_DIR       sanitizer build tree (default: build-ubsan)
#   DEBUG_BUILD_DIR       debug-checks build tree (default: build-dbg)
#   JOBS                  parallel build jobs (default: nproc)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build}"
TSA_BUILD_DIR="${TSA_BUILD_DIR:-${REPO_ROOT}/build-tsa}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-${REPO_ROOT}/build-tsan}"
NOTELEMETRY_BUILD_DIR="${NOTELEMETRY_BUILD_DIR:-${REPO_ROOT}/build-notel}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-${REPO_ROOT}/build-asan}"
UBSAN_BUILD_DIR="${UBSAN_BUILD_DIR:-${REPO_ROOT}/build-ubsan}"
DEBUG_BUILD_DIR="${DEBUG_BUILD_DIR:-${REPO_ROOT}/build-dbg}"
JOBS="${JOBS:-$(nproc)}"

STAGES=(tier-1 lint tsa gallery scalar tsan notelemetry asan ubsan debug)

usage() {
  echo "usage: $0 [--stage <name>]" >&2
  echo "stages: ${STAGES[*]}" >&2
  exit 2
}

ONLY_STAGE=""
case "$#" in
  0) ;;
  2) [[ "$1" == "--stage" ]] || usage
     ONLY_STAGE="$2" ;;
  *) usage ;;
esac

configure() {
  local dir="$1"
  shift
  cmake -B "${dir}" -S "${REPO_ROOT}" -G Ninja "$@"
}

configure_main() {
  configure "${BUILD_DIR}" -DADAMEL_WERROR=ON
}

stage_tier_1() {
  echo "== tier-1: configure + build (warnings are errors) =="
  configure_main
  cmake --build "${BUILD_DIR}" -j "${JOBS}"

  echo "== tier-1: ctest =="
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"
}

stage_lint() {
  echo "== lint: adamel_lint over src/ bench/ examples/ =="
  configure_main
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target adamel_lint
  "${BUILD_DIR}/tools/lint/adamel_lint" "${REPO_ROOT}" src bench examples
}

stage_tsa() {
  echo "== tsa: clang -Wthread-safety build (lock-discipline proof) =="
  if ! command -v clang++ >/dev/null 2>&1; then
    if [[ -n "${ONLY_STAGE}" ]]; then
      echo "tsa: clang++ not found on PATH" >&2
      return 1
    fi
    echo "tsa: clang++ not found on PATH; skipping (CI runs this gate)"
    return 0
  fi
  configure "${TSA_BUILD_DIR}" \
    -DCMAKE_CXX_COMPILER=clang++ -DADAMEL_THREAD_SAFETY=ON -DADAMEL_WERROR=ON
  cmake --build "${TSA_BUILD_DIR}" -j "${JOBS}"
}

stage_gallery() {
  echo "== gallery: bench_gallery --quick smoke (recall + bitwise gates) =="
  configure_main
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_gallery
  "${BUILD_DIR}/bench/bench_gallery" --quick --out "${BUILD_DIR}/bench_smoke"
}

stage_scalar() {
  echo "== scalar: full ctest with ADAMEL_FORCE_SCALAR=1 =="
  configure_main
  cmake --build "${BUILD_DIR}" -j "${JOBS}"
  ADAMEL_FORCE_SCALAR=1 ctest --test-dir "${BUILD_DIR}" --output-on-failure \
    -j "${JOBS}"
}

stage_tsan() {
  echo "== tsan: configure + build parallel tests =="
  configure "${TSAN_BUILD_DIR}" -DADAMEL_SANITIZE=thread
  cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" \
    --target parallel_test ops_test obs_test serve_test deadlock_test \
    lifecycle_test gallery_test

  echo "== tsan: run parallel tests =="
  "${TSAN_BUILD_DIR}/tests/parallel_test"
  "${TSAN_BUILD_DIR}/tests/ops_test" --gtest_filter='OpsForward.MatMul*:OpsGradient.MatMul*'
  "${TSAN_BUILD_DIR}/tests/obs_test"
  "${TSAN_BUILD_DIR}/tests/serve_test"
  "${TSAN_BUILD_DIR}/tests/deadlock_test"
  "${TSAN_BUILD_DIR}/tests/lifecycle_test"
  "${TSAN_BUILD_DIR}/tests/gallery_test"
}

stage_notelemetry() {
  echo "== notelemetry: configure + build (ADAMEL_TELEMETRY=OFF) =="
  configure "${NOTELEMETRY_BUILD_DIR}" -DADAMEL_TELEMETRY=OFF -DADAMEL_WERROR=ON
  cmake --build "${NOTELEMETRY_BUILD_DIR}" -j "${JOBS}"

  echo "== notelemetry: full ctest =="
  ctest --test-dir "${NOTELEMETRY_BUILD_DIR}" --output-on-failure -j "${JOBS}"
}

stage_asan() {
  echo "== asan: configure + build serialization tests =="
  configure "${ASAN_BUILD_DIR}" -DADAMEL_SANITIZE=address
  cmake --build "${ASAN_BUILD_DIR}" -j "${JOBS}" \
    --target serialize_test checkpoint_test kernels_test gallery_test \
    corruption_test

  echo "== asan: run serialization + kernel tests =="
  "${ASAN_BUILD_DIR}/tests/serialize_test"
  "${ASAN_BUILD_DIR}/tests/checkpoint_test"
  "${ASAN_BUILD_DIR}/tests/kernels_test"
  "${ASAN_BUILD_DIR}/tests/gallery_test"
  "${ASAN_BUILD_DIR}/tests/corruption_test"
}

stage_ubsan() {
  echo "== ubsan: configure + build =="
  configure "${UBSAN_BUILD_DIR}" -DADAMEL_SANITIZE=undefined
  cmake --build "${UBSAN_BUILD_DIR}" -j "${JOBS}"

  echo "== ubsan: full ctest =="
  ctest --test-dir "${UBSAN_BUILD_DIR}" --output-on-failure -j "${JOBS}"
}

stage_debug() {
  echo "== debug-checks: configure + build =="
  configure "${DEBUG_BUILD_DIR}" -DADAMEL_DEBUG_CHECKS=ON
  cmake --build "${DEBUG_BUILD_DIR}" -j "${JOBS}"

  echo "== debug-checks: full ctest =="
  ctest --test-dir "${DEBUG_BUILD_DIR}" --output-on-failure -j "${JOBS}"
}

if [[ -n "${ONLY_STAGE}" ]]; then
  [[ " ${STAGES[*]} " == *" ${ONLY_STAGE} "* ]] || usage
  "stage_${ONLY_STAGE//-/_}"
  echo "== ${ONLY_STAGE} passed =="
else
  for stage in "${STAGES[@]}"; do
    "stage_${stage//-/_}"
  done
  echo "== all checks passed =="
fi
