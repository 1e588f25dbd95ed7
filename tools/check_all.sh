#!/usr/bin/env bash
# One-shot gate: plain build + full ctest, metrics-exposition smoke checks
# (quickstart with RC_METRICS_DUMP=1 and rc_server --smoke must emit every
# required metric family; quickstart's pipeline stages and store reads must
# each have a non-zero _count; in both, every series line must parse and
# every histogram must have _window_count),
# then the TSan and ASan/UBSan suites. Any failure stops the script.
#
# Usage: tools/check_all.sh
#   RC_SKIP_SANITIZERS=1 tools/check_all.sh   # plain build + ctest + smoke only
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${RC_BUILD_DIR:-${REPO_ROOT}/build}"

# check_exposition LABEL TEXT: every series line in the Prometheus text TEXT
# must parse as `name{k="escaped",...} number` (label values escape \\, \" and
# newline; non-finite values are NaN, +Inf or -Inf), so a hostile label value
# cannot break the exposition or forge a series; and every histogram family
# must carry its sliding-window _window_count companion.
check_exposition() {
  local label="$1" body="$2"
  local label_re='[a-zA-Z_][a-zA-Z0-9_]*="([^"\\]|\\[\\"n])*"'
  local value_re='[-+]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?|NaN|[-+]Inf'
  local series_re="^[a-zA-Z_:][a-zA-Z0-9_:]*(\\{${label_re}(,${label_re})*\\})? (${value_re})\$"
  local bad_lines
  bad_lines="$(grep -v '^#' <<<"${body}" | grep -vE "${series_re}" || true)"
  if [[ -n "${bad_lines}" ]]; then
    echo "FAIL: ${label} exposition lines outside the series grammar:" >&2
    echo "${bad_lines}" >&2
    exit 1
  fi
  local histograms family
  histograms="$(sed -n 's/^# TYPE \([a-zA-Z0-9_:]*\) histogram$/\1/p' <<<"${body}")"
  for family in ${histograms}; do
    if ! grep -qE "^${family}_window_count( |\\{)" <<<"${body}"; then
      echo "FAIL: ${label} histogram family '${family}' has no _window_count series" >&2
      exit 1
    fi
  done
  echo "${label}: every series line parses; all $(wc -w <<<"${histograms}") histograms have _window_count."
}

echo "== plain build =="
cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}"
cmake --build "${BUILD_DIR}" -j"$(nproc)"

echo "== ctest =="
ctest --test-dir "${BUILD_DIR}" -j"$(nproc)" --output-on-failure

echo "== exec-engine parity (scalar / avx2 walks) =="
"${BUILD_DIR}/bench/perf_exec_engine" --dispatch
"${BUILD_DIR}/tests/rc_ml_tests" --gtest_filter='ExecEngine*'
# Rerun with the AVX2 kill-switch set so CI exercises the portable scalar
# fallback even on AVX2 hardware (on non-AVX2 hosts both runs are scalar).
echo "-- scalar fallback (RC_DISABLE_AVX2=1) --"
RC_DISABLE_AVX2=1 "${BUILD_DIR}/tests/rc_ml_tests" --gtest_filter='ExecEngine*'

echo "== SIMD flag isolation lint =="
# exec_engine_avx2.cc must stay the ONLY translation unit built with AVX2
# flags: if -mavx2 leaks into any other target, the compiler may
# auto-vectorize portable code and crash pre-AVX2 hosts before the runtime
# dispatch ever runs (see exec_engine_simd.h).
MAVX2_CMAKE="$(grep -rl --include='CMakeLists.txt' --exclude-dir='build*' \
  -e '-mavx2' "${REPO_ROOT}" || true)"
if [[ "${MAVX2_CMAKE}" != "${REPO_ROOT}/src/ml/CMakeLists.txt" ]]; then
  echo "FAIL: -mavx2 must appear only in src/ml/CMakeLists.txt; found:" >&2
  echo "${MAVX2_CMAKE}" >&2
  exit 1
fi
if [[ -f "${BUILD_DIR}/compile_commands.json" ]]; then
  if grep -e '-mavx2' "${BUILD_DIR}/compile_commands.json" \
      | grep -v 'exec_engine_avx2.cc'; then
    echo "FAIL: -mavx2 leaked beyond exec_engine_avx2.cc (see above)" >&2
    exit 1
  fi
fi
echo "-mavx2 is confined to the exec_engine_avx2.cc kernel TU."

echo "== metrics exposition smoke check =="
EXPO="$(RC_METRICS_DUMP=1 "${BUILD_DIR}/examples/quickstart")"
REQUIRED_FAMILIES=(
  rc_client_result_hits
  rc_client_result_misses
  rc_client_model_executions
  rc_client_batch_size
  rc_client_predict_latency_us
  rc_client_store_read_latency_us
  rc_client_degraded_reason
  rc_client_breaker_trips
  rc_client_model_bytes
  rc_store_puts
  rc_store_gets
  rc_store_get_latency_us
  rc_pipeline_stage_duration_us
  rc_pipeline_published_records
  rc_cache_entries
  rc_cache_admit_rejects
  rc_cache_evictions
  rc_cache_sketch_resets
  rc_cache_probe_retries
  rc_cache_rebuilds
  rc_cache_table_bytes
)
for family in "${REQUIRED_FAMILIES[@]}"; do
  if ! grep -q "^${family}" <<<"${EXPO}"; then
    echo "FAIL: metric family '${family}' missing from quickstart exposition" >&2
    exit 1
  fi
done
echo "all ${#REQUIRED_FAMILIES[@]} required metric families present."
# No stage may lose its histogram: every stage quickstart runs (train once
# per model), the store's TryGet and the client's store read must each have
# taken a sample.
REQUIRED_COUNTS=(
  'rc_pipeline_stage_duration_us_count{stage="observations"}'
  'rc_pipeline_stage_duration_us_count{stage="build_examples"}'
  'rc_pipeline_stage_duration_us_count{stage="feature_snapshot"}'
  'rc_pipeline_stage_duration_us_count{stage="publish"}'
  rc_store_get_latency_us_count
  rc_client_store_read_latency_us_count
)
for model in VM_AVGUTIL VM_P95UTIL DEPLOY_SIZE_VMS DEPLOY_SIZE_CORES VM_LIFETIME \
             VM_WORKLOAD_CLASS; do
  REQUIRED_COUNTS+=("rc_pipeline_stage_duration_us_count{model=\"${model}\",stage=\"train\"}")
done
for series in "${REQUIRED_COUNTS[@]}"; do
  if ! awk -v s="${series}" '$1 == s && $2 > 0 { found = 1 } END { exit !found }' \
      <<<"${EXPO}"; then
    echo "FAIL: quickstart exposition has no non-zero '${series}'" >&2
    exit 1
  fi
done
echo "all ${#REQUIRED_COUNTS[@]} required stage and read timers took samples."
EXPO_BODY="$(sed -n '/^== metrics (client registry) ==$/,$p' <<<"${EXPO}" \
  | grep -v -e '^== metrics' -e '^$')"
check_exposition "quickstart" "${EXPO_BODY}"

echo "== network service smoke check =="
NET_EXPO="$("${BUILD_DIR}/tools/rc_server" --smoke --vms 3000 2>/dev/null)"
NET_FAMILIES=(
  rc_net_connections_accepted
  rc_net_conn_rejected
  rc_net_connections_active
  rc_net_requests
  rc_net_predictions
  rc_net_protocol_errors
  rc_net_bytes_read
  rc_net_bytes_written
  rc_net_request_latency_us
  rc_net_client_requests
  rc_net_client_request_latency_us
  rc_client_state_publishes
)
for family in "${NET_FAMILIES[@]}"; do
  if ! grep -q "^${family}" <<<"${NET_EXPO}"; then
    echo "FAIL: metric family '${family}' missing from rc_server --smoke exposition" >&2
    exit 1
  fi
done
echo "all ${#NET_FAMILIES[@]} required rc_net_*/rc_client_* metric families present."
check_exposition "rc_server --smoke" "${NET_EXPO}"

echo "== rc_server flag validation =="
# A port outside 0-65535 must be refused (exit 2), not truncated to 16 bits.
set +e
"${BUILD_DIR}/tools/rc_server" --port 70000 --smoke >/dev/null 2>&1
PORT_STATUS=$?
set -e
if [[ "${PORT_STATUS}" -ne 2 ]]; then
  echo "FAIL: rc_server --port 70000 --smoke exited ${PORT_STATUS}, want 2" >&2
  exit 1
fi
echo "rc_server rejects an out-of-range --port."
# A removed flag must take the unknown-flag path (exit 2), not be silently
# accepted.
set +e
"${BUILD_DIR}/tools/rc_server" --combiner on --smoke >/dev/null 2>&1
REMOVED_FLAG_STATUS=$?
set -e
if [[ "${REMOVED_FLAG_STATUS}" -ne 2 ]]; then
  echo "FAIL: rc_server accepted a removed flag (exit ${REMOVED_FLAG_STATUS}, want 2)" >&2
  exit 1
fi
echo "rc_server rejects removed flags."
# The other tools parse integer flags the same way: a negative VM count must
# be refused (exit 2), not read as a trace of no VMs.
set +e
"${BUILD_DIR}/tools/trace_gen" --vms -5 --out /dev/null >/dev/null 2>&1
VMS_STATUS=$?
set -e
if [[ "${VMS_STATUS}" -ne 2 ]]; then
  echo "FAIL: trace_gen --vms -5 exited ${VMS_STATUS}, want 2" >&2
  exit 1
fi
echo "trace_gen rejects a negative --vms."

echo "== admin introspection endpoint check =="
# Boot a real server with the admin endpoint, 1-in-1 trace sampling, and
# self-issued probe traffic, then drive all four routes over HTTP the way an
# operator would. The /tracez check is the end-to-end acceptance: the probe
# requests must leave at least one connected span tree behind.
ADMIN_LOG="$(mktemp)"
"${BUILD_DIR}/tools/rc_server" --vms 3000 --admin-port 0 --trace-sample 1 \
  --probe 8 >/dev/null 2>"${ADMIN_LOG}" &
ADMIN_PID=$!
trap 'kill "${ADMIN_PID}" 2>/dev/null || true' EXIT
for _ in $(seq 1 120); do
  grep -q '^probe:' "${ADMIN_LOG}" && break
  sleep 0.5
done
ADMIN_PORT="$(sed -n 's#.*admin endpoint on http://127.0.0.1:\([0-9]*\).*#\1#p' "${ADMIN_LOG}")"
if [[ -z "${ADMIN_PORT}" ]]; then
  echo "FAIL: rc_server did not report an admin endpoint" >&2
  cat "${ADMIN_LOG}" >&2
  exit 1
fi
ADMIN_BASE="http://127.0.0.1:${ADMIN_PORT}"
METRICS="$(curl -sf "${ADMIN_BASE}/metrics")"
for family in rc_build_info rc_process_uptime_seconds rc_process_resident_memory_bytes \
              rc_net_requests rc_net_request_latency_us_window_p99; do
  if ! grep -q "^${family}" <<<"${METRICS}"; then
    echo "FAIL: metric family '${family}' missing from /metrics" >&2
    exit 1
  fi
done
HEALTHZ="$(curl -sf "${ADMIN_BASE}/healthz")" && grep -q '^status: ok' <<<"${HEALTHZ}" || {
  echo "FAIL: /healthz did not report ok" >&2; echo "${HEALTHZ}" >&2; exit 1; }
VARZ="$(curl -sf "${ADMIN_BASE}/varz")" && grep -q '"build"' <<<"${VARZ}" || {
  echo "FAIL: /varz missing the build section" >&2; echo "${VARZ}" >&2; exit 1; }
TRACEZ="$(curl -sf "${ADMIN_BASE}/tracez")"
for span in netclient/call net/read_frame net/predict net/write_frame; do
  if ! grep -q "${span}" <<<"${TRACEZ}"; then
    echo "FAIL: /tracez missing span '${span}' (no connected trace tree)" >&2
    echo "${TRACEZ}" >&2
    exit 1
  fi
done
curl -s -o /dev/null -w '%{http_code}' "${ADMIN_BASE}/nope" | grep -q 404 || {
  echo "FAIL: unknown admin path did not 404" >&2; exit 1; }
kill "${ADMIN_PID}" 2>/dev/null || true
wait "${ADMIN_PID}" 2>/dev/null || true
trap - EXIT
rm -f "${ADMIN_LOG}"
echo "admin endpoint serves /metrics /healthz /varz /tracez with a live span tree."

echo "== cache layering lint =="
# rc::cache sits BELOW rc::core (the client embeds a ShardedCache), so a
# src/cache -> src/core dependency would be a cycle. Keep the cache layer
# reusable: it may depend only on src/common and src/obs.
if grep -rn '#include "src/core' "${REPO_ROOT}/src/cache/"; then
  echo "FAIL: src/cache must not include src/core headers (layering)" >&2
  exit 1
fi
if grep -vE '^\s*#' "${REPO_ROOT}/src/cache/CMakeLists.txt" | grep -n 'rc_core'; then
  echo "FAIL: rc_cache must not link rc_core (layering)" >&2
  exit 1
fi
echo "src/cache has no dependency on src/core."

echo "== clock test determinism lint =="
# The clock suite must stay on VirtualClock: a real sleep in it reintroduces
# exactly the timing flake the clock injection removed.
CLOCK_TEST="${REPO_ROOT}/tests/common/clock_test.cc"
if grep -n 'sleep_for\|sleep_until\|usleep\|nanosleep' "${CLOCK_TEST}"; then
  echo "FAIL: real sleep in deterministic clock test ${CLOCK_TEST#${REPO_ROOT}/}" >&2
  exit 1
fi
echo "clock test suite is sleep-free (VirtualClock only)."

if [[ "${RC_SKIP_SANITIZERS:-0}" != "1" ]]; then
  echo "== TSan =="
  "${REPO_ROOT}/tools/check_tsan.sh"
  echo "== ASan+UBSan =="
  "${REPO_ROOT}/tools/check_asan.sh"
fi

echo "check_all passed."
