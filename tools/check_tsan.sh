#!/usr/bin/env bash
# Builds the test binaries of the threaded modules under ThreadSanitizer and
# runs them.
# Any reported race fails the script (TSAN_OPTIONS halt_on_error below).
#
# Usage: tools/check_tsan.sh [extra gtest args...]
#   e.g. tools/check_tsan.sh --gtest_filter='ClientConcurrencyTest.*'
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${RC_TSAN_BUILD_DIR:-${REPO_ROOT}/build-tsan}"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRC_SANITIZE=thread
cmake --build "${BUILD_DIR}" -j"$(nproc)" \
  --target rc_common_tests rc_obs_tests rc_ml_tests rc_cache_tests rc_store_tests rc_core_tests rc_net_tests \
  rc_trace_tests

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"

echo "== rc_common_tests (TSan) =="
"${BUILD_DIR}/tests/rc_common_tests" "$@"
echo "== rc_obs_tests (TSan) =="
"${BUILD_DIR}/tests/rc_obs_tests" "$@"
echo "== rc_ml_tests (TSan) =="
"${BUILD_DIR}/tests/rc_ml_tests" "$@"
echo "== rc_cache_tests (TSan) =="
"${BUILD_DIR}/tests/rc_cache_tests" "$@"
echo "== rc_store_tests (TSan) =="
"${BUILD_DIR}/tests/rc_store_tests" "$@"
echo "== rc_core_tests (TSan) =="
"${BUILD_DIR}/tests/rc_core_tests" "$@"
echo "== rc_net_tests (TSan) =="
"${BUILD_DIR}/tests/rc_net_tests" "$@"
echo "== rc_trace_tests (TSan) =="
"${BUILD_DIR}/tests/rc_trace_tests" "$@"
# The exec-engine walks (scalar and the AVX2 kernel) run regardless of any
# caller filter: the engine is shared read-only across prediction threads,
# so any mutation the sanitizer can see is a real bug. A multiclass boosted
# fit grows each round's class trees on worker threads that share the binned
# matrix and the row subsample, each tree's trainer holding its own
# histogram slots, and a forest fits its trees on worker threads that share
# one binned matrix, so the boosting, forest and tree suites run too. Feature
# binning hands features to threads from one shared counter and fills the
# binned matrix from row ranges, each thread writing its own stretch of every
# column; its parity suite checks both against a sequential oracle.
echo "== rc_ml_tests (TSan, exec-engine parity + boosted class trees + forest trees + feature binning) =="
"${BUILD_DIR}/tests/rc_ml_tests" --gtest_filter='ExecEngine*:GbtTest*:RandomForestTest*:FeatureBinnerTest*:DecisionTreeTest*'
# Tracing + admin endpoint always run under TSan: the span tree is assembled
# across client threads and epoll workers, and the admin thread scrapes
# registries the workers are writing — both are cross-thread by construction.
# The frame fuzzer and the loopback suite run too: both servers share one
# connection loop (worker handoff, read, flush, close), and these drive it
# from many client threads.
echo "== rc_net_tests (TSan, tracing + admin endpoint + connection loop) =="
"${BUILD_DIR}/tests/rc_net_tests" --gtest_filter='TracePropagation*:AdminServer*:FrameFuzz*:NetLoopback*'
echo "== rc_obs_tests (TSan, trace store + window rotation) =="
"${BUILD_DIR}/tests/rc_obs_tests" --gtest_filter='TraceContext*:HistogramWindow*'
# The seqlock probe is the load-bearing lock-free structure in the serving
# path: readers revalidate atomics the shard writer is stamping, so these
# suites run under TSan regardless of any caller filter. The sharded-store
# stress and the client parity storm exercise the same protocol end to end;
# the client concurrency suite's readers, pusher and reloader race the
# shared miss path against state publishes.
echo "== rc_cache_tests (TSan, seqlock readers vs writer + admission) =="
"${BUILD_DIR}/tests/rc_cache_tests" --gtest_filter='Word2Cache*:ShardedCache*:AdmissionQuality*'
echo "== rc_store_tests (TSan, sharded KvStore stress) =="
"${BUILD_DIR}/tests/rc_store_tests" --gtest_filter='KvStoreShardStress*'
echo "== rc_core_tests (TSan, client cache parity storm + client concurrency) =="
"${BUILD_DIR}/tests/rc_core_tests" --gtest_filter='ClientCacheParity*:ClientConcurrency*'
# Cached no-predictions race the pushes that introduce their feature data:
# the generation stamps are the only thing keeping a stale none from being
# served, and their publish-then-bump ordering is what TSan vets here.
echo "== rc_core_tests (TSan, no-prediction vs feature push storm) =="
"${BUILD_DIR}/tests/rc_core_tests" --gtest_filter='ClientNoPredictionStress*'
# Trace generation fills the ground-truth summaries from several threads,
# each writing its own chunk of VmRecords; the fingerprint suite generates a
# trace and checks every summary, so it runs regardless of any caller filter.
# The offline pipeline's fits are parallel inside (forest trees, boosted
# class trees); the pipeline suites run it and pin its models, so they run
# regardless of any caller filter.
echo "== rc_core_tests (TSan, parallel pipeline fits) =="
"${BUILD_DIR}/tests/rc_core_tests" --gtest_filter='PipelineTest*:PipelineFingerprint*'
echo "== rc_trace_tests (TSan, parallel summary pass + fingerprint) =="
"${BUILD_DIR}/tests/rc_trace_tests" --gtest_filter='TraceFingerprint*'
echo "== rc_common_tests (TSan, ParallelFor) =="
"${BUILD_DIR}/tests/rc_common_tests" --gtest_filter='ParallelFor*'
echo "TSan check passed: no data races reported."
