#!/usr/bin/env bash
# Builds the test binaries under AddressSanitizer + UndefinedBehaviorSanitizer
# and runs them. Any report fails the script (halt_on_error below). The
# corruption/fuzz suites in particular are only meaningful under ASan: they
# assert that corrupt bytes are *rejected*, and ASan proves the reject paths
# never read out of bounds while deciding.
#
# Usage: tools/check_asan.sh [extra gtest args...]
#   e.g. tools/check_asan.sh --gtest_filter='BytesFuzzTest.*'
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${RC_ASAN_BUILD_DIR:-${REPO_ROOT}/build-asan}"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRC_SANITIZE=address
cmake --build "${BUILD_DIR}" -j"$(nproc)" \
  --target rc_common_tests rc_obs_tests rc_ml_tests rc_cache_tests rc_store_tests rc_core_tests rc_net_tests \
  rc_trace_tests rc_sched_tests

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

for t in rc_common_tests rc_obs_tests rc_ml_tests rc_cache_tests rc_store_tests rc_core_tests rc_net_tests; do
  echo "== ${t} (ASan+UBSan) =="
  "${BUILD_DIR}/tests/${t}" "$@"
done
# The exec-engine suites run regardless of any caller filter: the walks index
# gathered/selected node links into pool arrays, and the batched kernels read
# whole SIMD blocks — exactly the out-of-bounds shapes ASan exists to vet.
# The trainers run too, since the gradient search indexes per-depth histogram
# slots and bins, and so do the byte fuzz suites, whose reject paths must
# never read out of bounds while deciding.
echo "== rc_ml_tests (ASan+UBSan, exec-engine parity + trainers + byte fuzz) =="
"${BUILD_DIR}/tests/rc_ml_tests" \
  --gtest_filter='ExecEngine*:DecisionTreeTest*:GbtTest*:RandomForestTest*:BytesFuzzTest*'
# The admin endpoint parses hostile HTTP (dribbled, oversized, malformed)
# and the v2 header decoder reads optional trace blocks from untrusted
# frames — exactly the bounds-handling shapes ASan exists to vet. The frame
# fuzzer drives the connection loop both servers share through truncated,
# corrupt and oversized frames.
echo "== rc_net_tests (ASan+UBSan, admin endpoint + wire tracing + frame fuzz) =="
"${BUILD_DIR}/tests/rc_net_tests" --gtest_filter='AdminServer*:TracePropagation*:NetProtocol*:FrameFuzz*'
# At the descriptor limit both listeners shed queued connections through a
# spare descriptor (close, accept, close, reopen) — fd juggling that ASan
# and UBSan vet for double closes and use of a closed descriptor's state.
echo "== rc_net_tests (ASan+UBSan, descriptor-limit shedding) =="
"${BUILD_DIR}/tests/rc_net_tests" --gtest_filter='FdLimit*'
# The open-addressed cache indexes raw slot/ctrl arrays under concurrent
# eviction, tombstone reuse, and in-place rebuild — exactly the off-by-one
# shapes ASan vets. The shard-stress suite vets listener lifetime (the
# Unsubscribe drain) against use-after-free.
echo "== rc_cache_tests (ASan+UBSan, open addressing + rebuild) =="
"${BUILD_DIR}/tests/rc_cache_tests" --gtest_filter='Word2Cache*:FrequencySketch*'
echo "== rc_store_tests (ASan+UBSan, sharded KvStore listener lifetime) =="
"${BUILD_DIR}/tests/rc_store_tests" --gtest_filter='KvStoreShardStress*'
# The client's stamped cache values round-trip through the cache's raw
# words, and the no-prediction storm fills and re-stamps them concurrently.
# The concurrency suite's readers score misses against snapshots that its
# pusher and reloader replace and release. The spec-agreement suite ingests a
# spec whose row is narrower than its model reads, which must never be scored.
echo "== rc_core_tests (ASan+UBSan, cache parity + no-prediction storm + concurrency + spec agreement) =="
"${BUILD_DIR}/tests/rc_core_tests" --gtest_filter='ClientCacheParity*:ClientNoPredictionStress*:ClientConcurrency*:ClientDegradationTest.MismatchedSpecAndModel*'
# The VM-table writer turns byte-sized role and service codes into names, and
# the reader parses untrusted CSV columns back into those codes, which the
# featurizer then uses as one-hot positions.
echo "== rc_trace_tests + rc_core_tests (ASan+UBSan, trace CSV codes) =="
"${BUILD_DIR}/tests/rc_trace_tests" --gtest_filter='TraceIo*:InputsFromVm*'
"${BUILD_DIR}/tests/rc_core_tests" --gtest_filter='InputsFromVm*'
# The scheduler walks per-group bitsets of servers (word and bit indices,
# the ragged last word) to build its candidate set, and the parity suite
# replays random streams against a whole-cluster oracle on clusters sized
# around the 64-server words. The whole binary runs: golden month,
# scheduler, cluster, rules, simulator and parity suites.
echo "== rc_sched_tests (ASan+UBSan, candidate bitsets + placement parity) =="
"${BUILD_DIR}/tests/rc_sched_tests"
echo "ASan+UBSan check passed: no memory or UB reports."
