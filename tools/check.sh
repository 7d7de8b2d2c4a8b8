#!/usr/bin/env bash
# Build + test under a sanitizer configuration. The new threaded execution
# paths (thread pool, fused StateBatch, query service) should be validated
# with
#
#   tools/check.sh tsan              # race-check the threaded paths
#   tools/check.sh asan              # memory/UB check
#   tools/check.sh release           # plain optimized build (default)
#   tools/check.sh tsan --stress     # + the chaos stress shard: repeat the
#                                    # service chaos harness (concurrent
#                                    # clients under cycling failpoints)
#                                    # several times under the sanitizer
#   tools/check.sh release --torture # + kill-and-recover torture: SIGKILL a
#                                    # worker process at randomized
#                                    # persistence sites, verify recovery is
#                                    # bit-identical (TORTURE_ROUNDS, def 20)
#
# Requires cmake >= 3.23 (presets). Runs from anywhere inside the repo.
set -euo pipefail

preset="${1:-release}"
stress=0
torture=0
case "$preset" in
  release|asan|tsan) ;;
  *) echo "usage: $0 [release|asan|tsan] [--stress|--torture]" >&2; exit 2 ;;
esac
if [ "${2:-}" = "--stress" ]; then
  stress=1
elif [ "${2:-}" = "--torture" ]; then
  torture=1
elif [ -n "${2:-}" ]; then
  echo "usage: $0 [release|asan|tsan] [--stress|--torture]" >&2; exit 2
fi

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"
ctest --preset "$preset" -j "$(nproc)"

build_dir="build-${preset}"
[ "$preset" = release ] && build_dir="build"

if [ "$preset" = tsan ]; then
  # Explicit race gate for the parallel pipeline: re-run the thread-count
  # determinism suite with many repetitions so dynamic chunk claiming and
  # the per-worker observability buffers get repeatedly exercised under
  # ThreadSanitizer (ctest above runs each test once).
  "${build_dir}/tests/sudaf_tests" \
    --gtest_filter='ParallelPipelineTest.*' --gtest_repeat=3
fi

if [ "$torture" = 1 ]; then
  # Real process death: the torture supervisor fork/execs a worker, kills
  # it with SIGKILL at a randomized persistence site (or a randomized
  # wall-clock moment), then recovers the store in-process and checks every
  # answer bit-for-bit against a cold run (docs/robustness.md).
  "${build_dir}/tools/torture" --rounds "${TORTURE_ROUNDS:-20}"
fi

if [ "$stress" = 1 ]; then
  # Chaos stress shard: concurrent service clients with a chaos thread
  # cycling failpoint configurations, plus the admission/session
  # concurrency suites, the query-group pipeline every solo and batched
  # rewritten query runs through, chunked sharing (instances sharing
  # one session cache), the thread pool's reentrancy and fail-fast
  # contracts (lowest-indexed error wins under preempting load), the
  # rewrite memo (eight threads sharing one session's memo and cache),
  # the fused pass's vectors and log-free log channels (parallel workers
  # converting their own chunk blocks), the max-entropy fit memo
  # (eight threads fitting and hitting one process-wide memo), and the
  # WHERE filter (workers sharing one compiled program, each with its own
  # slot buffers), a query group's probe, pass and serve copy (eight
  # threads of partial hits on one session under a 1 ms integrity
  # scrubber), the session's fault and poison paths and the scrubber,
  # repeated so rare interleavings get a chance to surface under the
  # sanitizer.
  "${build_dir}/tests/sudaf_tests" \
    --gtest_filter='ChaosTest.*:AdmissionTest.*:ServiceTest.*:ThreadPoolReentrancyTest.*:ThreadPoolRobustnessTest.*:SharedScanTest.*:SoloParityTest.*:ChunkedTest.*:RewriteMemoTest.*:FusedVectorTest.*:LogProductTest.*:MaxEntMemoConcurrencyTest.*:ScanKernelTest.*:ProbeServeTest.*:ProbeServeConcurrencyTest.*:RobustSessionTest.*:ScrubTest.*' \
    --gtest_repeat=3 --gtest_shuffle
fi
