#!/usr/bin/env bash
# End-to-end observability smoke test: starts opt_server with metrics
# dumping, tracing, and profile logging enabled, runs COUNT + STATS +
# PROFILE through opt_client, and asserts that (a) the STATS exposition
# carries the core registry counters and latency percentiles, (b) the
# PROFILE reply reports non-zero micro overlap (CPU really did run
# while reads were in flight) plus a cost-model residual, and the
# server appended the run to --profile-out, and (c) the shutdown trace
# file is Chrome trace_event JSON containing OPT phase spans and the
# profiler's overlap counter tracks.
#
# Along the way it checks connection hygiene: 200 one-shot STATS
# connections leave opt_server's fd count at baseline, and SIGTERM
# ends opt_server within 5 s while a raw TCP client sits idle on its
# metrics port.
#
# Then the distributed phase: partitions the graph into a 2-shard fleet
# behind opt_router, scrapes BOTH Prometheus endpoints (server and
# router — windowed rates, fleet-merged histograms, per-shard up
# gauges), runs `opt_client --op trace` through the router, and asserts
# the merged fleet trace is valid JSON carrying spans from at least two
# distinct pids. The merged trace is left at $TRACE_ARTIFACT_DIR (if
# set) for CI artifact upload.
#
#   scripts/observability_smoke.sh [BUILD_DIR]    (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
for bin in tools/graph_gen tools/graph_partition tools/opt_server \
           tools/opt_client tools/opt_router; do
  if [[ ! -x "$BUILD_DIR/$bin" ]]; then
    echo "missing $BUILD_DIR/$bin — build the '$(basename "$bin")' target first" >&2
    exit 2
  fi
done

WORK_DIR="$(mktemp -d)"
SOCK="$WORK_DIR/opt.sock"
TRACE="$WORK_DIR/trace.json"
SERVER_PID=""
ROUTER_PID=""
cleanup() {
  for pid in "$ROUTER_PID" "$SERVER_PID"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

# GET the body of a local URL (no curl dependency in minimal images).
scrape() {
  python3 - "$1" <<'EOF'
import sys, urllib.request
with urllib.request.urlopen(sys.argv[1], timeout=10) as r:
    sys.stdout.write(r.read().decode())
EOF
}

echo "== generating graph store"
"$BUILD_DIR/tools/graph_gen" --model rmat --scale 12 --edge_factor 16 \
  --seed 7 --store "$WORK_DIR/g" > /dev/null

echo "== starting opt_server (metrics dump + tracing on)"
# --default_pages 8 keeps the buffer budget below the graph size so the
# run exercises the external triangulation and thread-morph paths (and
# their trace spans), not just the in-memory fast path.
OPT_LOG_LEVEL=info "$BUILD_DIR/tools/opt_server" --unix "$SOCK" \
  --graph "smoke=$WORK_DIR/g" --workers 2 --default_pages 8 \
  --metrics-dump-interval 1 --metrics-port 0 --trace-out "$TRACE" \
  --profile-out "$WORK_DIR/profiles.jsonl" \
  > "$WORK_DIR/server.out" 2> "$WORK_DIR/server.err" &
SERVER_PID=$!

for _ in $(seq 1 50); do
  [[ -S "$SOCK" ]] && break
  sleep 0.1
done
[[ -S "$SOCK" ]] || { echo "server did not come up"; cat "$WORK_DIR/server.err"; exit 1; }

# PROFILE goes first, while the shared pool is still cold: a warmed
# pool serves every external page from memory, the run does no real
# reads, and micro overlap is legitimately zero — not what we want to
# assert.
echo "== PROFILE"
PROFILE="$("$BUILD_DIR/tools/opt_client" --unix "$SOCK" --op profile --graph smoke)"
echo "$PROFILE"

MICRO="$(sed -n 's/.*micro (CPU busy while reads in flight): \([0-9.]*\)%.*/\1/p' <<< "$PROFILE")"
[[ -n "$MICRO" ]] || { echo "FAIL: PROFILE output missing the micro-overlap line" >&2; exit 1; }
python3 - "$MICRO" <<'EOF'
import sys
micro = float(sys.argv[1])
if not 0.0 < micro <= 100.0:
    sys.exit(f"FAIL: micro overlap {micro}% not in (0, 100] — "
             "the profiled run never had CPU and in-flight reads together")
print(f"micro overlap {micro}% OK")
EOF
grep -qF "residual:" <<< "$PROFILE" || {
  echo "FAIL: PROFILE output missing the cost-model residual" >&2; exit 1; }

[[ -s "$WORK_DIR/profiles.jsonl" ]] || {
  echo "FAIL: --profile-out got no profile line" >&2; exit 1; }
grep -qF '"micro_overlap"' "$WORK_DIR/profiles.jsonl" || {
  echo "FAIL: --profile-out line missing micro_overlap" >&2; exit 1; }

echo "== COUNT"
"$BUILD_DIR/tools/opt_client" --unix "$SOCK" --op count --graph smoke
# A second identical COUNT exercises the result cache / coalescing path.
"$BUILD_DIR/tools/opt_client" --unix "$SOCK" --op count --graph smoke > /dev/null

echo "== STATS"
STATS="$("$BUILD_DIR/tools/opt_client" --unix "$SOCK" --op stats)"
echo "$STATS"

missing=0
for key in scheduler.submitted pool.fetch.hits pool.fetch.lookups \
           opt.internal.cache_hits opt.external.cache_hits \
           query.latency_us "pool hit rate" \
           perf.backend= opt.perf.task_clock_ns "perf backend:"; do
  if ! grep -qF "$key" <<< "$STATS"; then
    echo "FAIL: STATS exposition missing '$key'" >&2
    missing=1
  fi
done
[[ "$missing" -eq 0 ]] || exit 1

echo "== 200 one-shot STATS connections leave no fd behind"
fd_count() { find "/proc/$SERVER_PID/fd" -mindepth 1 -maxdepth 1 | wc -l; }
BASE_FDS="$(fd_count)"
for _ in $(seq 1 200); do
  "$BUILD_DIR/tools/opt_client" --unix "$SOCK" --op stats > /dev/null
done
NOW_FDS="$(fd_count)"
for _ in $(seq 1 50); do
  [[ "$NOW_FDS" -le "$BASE_FDS" ]] && break
  sleep 0.1
  NOW_FDS="$(fd_count)"
done
[[ "$NOW_FDS" -le "$BASE_FDS" ]] || {
  echo "FAIL: opt_server holds $NOW_FDS fds after 200 connections (baseline $BASE_FDS)" >&2
  exit 1; }
echo "server fds $BASE_FDS -> $NOW_FDS OK"

echo "== waiting for a metrics dump on stderr"
for _ in $(seq 1 30); do
  grep -q "metrics dump" "$WORK_DIR/server.err" && break
  sleep 0.1
done
grep -q "metrics dump" "$WORK_DIR/server.err" || {
  echo "FAIL: no periodic metrics dump in server log" >&2
  cat "$WORK_DIR/server.err" >&2
  exit 1
}

echo "== scraping the server's Prometheus endpoint"
SERVER_METRICS_PORT="$(sed -n 's|metrics on http://127.0.0.1:\([0-9]*\)/metrics|\1|p' "$WORK_DIR/server.out")"
[[ -n "$SERVER_METRICS_PORT" ]] || {
  echo "FAIL: opt_server did not announce a metrics port" >&2
  cat "$WORK_DIR/server.out" >&2; exit 1; }
# Two scrapes a second apart so the window sampler has >= 2 snapshots
# and the per-second rate gauges appear.
scrape "http://127.0.0.1:$SERVER_METRICS_PORT/metrics" > /dev/null
sleep 1.2
SERVER_SCRAPE="$(scrape "http://127.0.0.1:$SERVER_METRICS_PORT/metrics")"
for key in "# TYPE" "pool_fetch_lookups" "_per_sec" \
           "opt_metrics_window_seconds" "opt_graph_pages{graph=\"smoke\"}" \
           "query_latency_us{quantile=" \
           "perf_backend" "opt_perf_task_clock_ns"; do
  grep -qF "$key" <<< "$SERVER_SCRAPE" || {
    echo "FAIL: server scrape missing '$key'" >&2
    echo "$SERVER_SCRAPE" >&2; exit 1; }
done
echo "server scrape OK ($(wc -l <<< "$SERVER_SCRAPE") lines)"

echo "== SIGTERM with an idle client on the metrics port"
# A raw TCP client that never sends a request must not hold up shutdown.
exec 9<>"/dev/tcp/127.0.0.1/$SERVER_METRICS_PORT"
sleep 0.2
kill "$SERVER_PID"
for _ in $(seq 1 50); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "FAIL: opt_server still running 5 s after SIGTERM with an idle metrics client" >&2
  exec 9>&-
  exit 1
fi
exec 9>&-
wait "$SERVER_PID" || true
SERVER_PID=""
echo "server exited promptly OK"

echo "== checking trace"

[[ -s "$TRACE" ]] || { echo "FAIL: trace file missing/empty" >&2; exit 1; }
python3 - "$TRACE" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
names = {e["name"] for e in events}
required = {"opt.run", "phaseA.load", "internal.main", "external.chunk",
            "morph.to_external", "query.execute",
            # Counter tracks sampled by the overlap profiler during the
            # PROFILE query.
            "overlap.cpu_roles", "overlap.io_inflight",
            # Per-phase PMU counter track (perf_counters.h); present on
            # every backend rung because task-clock has no failure mode.
            "perf.task_clock_ms"}
missing = required - names
if missing:
    sys.exit(f"FAIL: trace missing spans {sorted(missing)}; has {sorted(names)}")
counters = sum(1 for e in events if e.get("ph") == "C")
print(f"trace OK: {len(events)} events ({counters} counter samples), "
      f"spans include {sorted(required)}")
EOF

echo "== distributed phase: 2-shard fleet behind opt_router"
"$BUILD_DIR/tools/graph_partition" --store "$WORK_DIR/g" \
  --output "$WORK_DIR/fleet" --shards 2 --graph g > /dev/null

OPT_LOG_LEVEL=info "$BUILD_DIR/tools/opt_router" \
  --manifest "$WORK_DIR/fleet.manifest" \
  --spawn "$BUILD_DIR/tools/opt_server" --port 0 --metrics-port 0 \
  > "$WORK_DIR/router.out" 2> "$WORK_DIR/router.err" &
ROUTER_PID=$!

ROUTER_PORT=""
for _ in $(seq 1 100); do
  ROUTER_PORT="$(sed -n 's|listening on 127.0.0.1:\([0-9]*\)|\1|p' "$WORK_DIR/router.out")"
  [[ -n "$ROUTER_PORT" ]] && break
  sleep 0.1
done
[[ -n "$ROUTER_PORT" ]] || {
  echo "FAIL: router did not come up" >&2; cat "$WORK_DIR/router.err" >&2; exit 1; }
ROUTER_METRICS_PORT="$(sed -n 's|metrics on http://127.0.0.1:\([0-9]*\)/metrics|\1|p' "$WORK_DIR/router.out")"
[[ -n "$ROUTER_METRICS_PORT" ]] || {
  echo "FAIL: router did not announce a metrics port" >&2
  cat "$WORK_DIR/router.out" >&2; exit 1; }

echo "== merged COUNT + traced COUNT through the router"
"$BUILD_DIR/tools/opt_client" --port "$ROUTER_PORT" --op count --graph g
MERGED_TRACE="$WORK_DIR/fleet_trace.json"
"$BUILD_DIR/tools/opt_client" --port "$ROUTER_PORT" --op trace --graph g \
  --out "$MERGED_TRACE"

echo "== scraping the router's fleet Prometheus endpoint"
ROUTER_SCRAPE="$(scrape "http://127.0.0.1:$ROUTER_METRICS_PORT/metrics")"
for key in "opt_shard_up{shard=\"0\"} 1" "opt_shard_up{shard=\"1\"} 1" \
           "# TYPE fleet_" "_count"; do
  grep -qF "$key" <<< "$ROUTER_SCRAPE" || {
    echo "FAIL: router scrape missing '$key'" >&2
    echo "$ROUTER_SCRAPE" >&2; exit 1; }
done
echo "router scrape OK ($(wc -l <<< "$ROUTER_SCRAPE") lines)"

echo "== checking the merged fleet trace"
python3 - "$MERGED_TRACE" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
pids = {e["pid"] for e in events if e.get("ph") == "X"}
if len(pids) < 2:
    sys.exit(f"FAIL: merged trace has spans from {len(pids)} pid(s) — "
             "expected the router plus at least one shard")
names = {e["name"] for e in events}
for required in ("router.count", "rpc.count", "query.count"):
    if required not in names:
        sys.exit(f"FAIL: merged trace missing '{required}' spans; has {sorted(names)}")
flows = sum(1 for e in events if e.get("ph") in ("s", "f"))
if flows == 0:
    sys.exit("FAIL: merged trace has no cross-process flow arrows")
print(f"fleet trace OK: {len(events)} events from {len(pids)} pids, "
      f"{flows} flow endpoints")
EOF

# Preserve the merged trace for CI artifact upload.
if [[ -n "${TRACE_ARTIFACT_DIR:-}" ]]; then
  mkdir -p "$TRACE_ARTIFACT_DIR"
  cp "$MERGED_TRACE" "$TRACE_ARTIFACT_DIR/fleet_trace.json"
  echo "merged trace copied to $TRACE_ARTIFACT_DIR/fleet_trace.json"
fi

kill "$ROUTER_PID"
wait "$ROUTER_PID" 2>/dev/null || true
ROUTER_PID=""

echo "observability smoke: PASS"
