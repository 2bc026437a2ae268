#!/usr/bin/env bash
# End-to-end load smoke test: drive the concurrent TCP front-end with
# the open-loop generator at modest rates and assert the run is clean
# (--strict: any protocol error fails), that the service_load section
# lands in the results JSON, and that a deliberately tiny admission
# queue sheds overload as explicit rejects rather than errors.  Used
# by CI; runnable locally from the repo root after `dune build`.
set -euo pipefail

BIN="_build/default/bin"
WORK="$(mktemp -d)"
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

[ -x "$BIN/netembed_loadgen.exe" ] || { echo "run 'dune build' first" >&2; exit 2; }

"$BIN/netembed_cli.exe" generate --kind planetlab -n 40 --seed 2 -o "$WORK/host.graphml"

# Clean run: two worker counts, two modest rates, strict.
"$BIN/netembed_loadgen.exe" \
  --server-bin "$BIN/netembed_server.exe" \
  --host "$WORK/host.graphml" \
  --workers-list 1,2 --rates 40,80 --duration 2 --connections 2 \
  --json "$WORK/results.json" --strict \
  | tee "$WORK/loadgen.out"

# The sweep wrote a service_load section with one row per
# (workers, rate) pair.
python3 -m json.tool "$WORK/results.json" > /dev/null \
  || { echo "FAIL: results.json is not valid JSON"; cat "$WORK/results.json"; exit 1; }
grep -q '"service_load"' "$WORK/results.json" \
  || { echo "FAIL: no service_load section"; cat "$WORK/results.json"; exit 1; }
ROWS=$(grep -c '"sustained_rps"' "$WORK/results.json" || true)
[ "$ROWS" -eq 4 ] \
  || { echo "FAIL: expected 4 service_load rows, got $ROWS"; cat "$WORK/results.json"; exit 1; }

# Overload run: a one-slot admission queue at an aggressive rate must
# shed load as counted rejects (not protocol errors, so no --strict
# violation and a nonzero rejected total).
"$BIN/netembed_loadgen.exe" \
  --server-bin "$BIN/netembed_server.exe" \
  --host "$WORK/host.graphml" \
  --workers-list 1 --rates 300 --duration 2 --connections 2 \
  --queue-capacity 1 --strict \
  --json "$WORK/overload.json" \
  | tee "$WORK/overload.out"

python3 -m json.tool "$WORK/overload.json" > /dev/null \
  || { echo "FAIL: overload.json is not valid JSON"; cat "$WORK/overload.json"; exit 1; }
grep -Eq '"rejected": [1-9]' "$WORK/overload.out" \
  || { echo "FAIL: saturated queue produced no backpressure rejects"; cat "$WORK/overload.out"; exit 1; }

# The clean sweep's rows carry the per-phase decomposition parsed off
# the phases= reply token, queue_wait included.
grep -q '"phase_mean_ms"' "$WORK/results.json" \
  || { echo "FAIL: no phase_mean_ms in service_load rows"; cat "$WORK/results.json"; exit 1; }
grep -q '"queue_wait"' "$WORK/results.json" \
  || { echo "FAIL: queue_wait missing from the phase breakdown"; cat "$WORK/results.json"; exit 1; }

# ----------------------------------------------------------------------
# Health arc against one long-lived server with a one-slot queue and a
# short fast SLO window: ready under clean load, 503 + saturated gauge
# under overload, ready again once the fast window ages out, and a
# non-200 /healthz the moment graceful drain begins.
#
# The server models a 200-site host (about 13.7k links), so that one
# worker's service time (a 13 ms median, mostly the residual snapshot,
# on a 2-core VM) is several times the 2.5 ms send interval at 400 rps:
# overload sheds most requests even on a much faster machine, while
# the 50 ms interval at 20 rps stays above the slowest replies.  On the
# 40-site host the worker kept up with 400 rps and the error budget
# never burned.
"$BIN/netembed_cli.exe" generate --kind planetlab -n 200 --seed 2 -o "$WORK/heavy.graphml"
MPORT=$(python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1])')

"$BIN/netembed_server.exe" --host "$WORK/heavy.graphml" --tcp-port 0 \
  --workers 1 --queue-capacity 1 --metrics-port "$MPORT" \
  --health-fast-window 3 --runtime-sample 1 \
  > "$WORK/server.out" 2>"$WORK/server.err" &
SERVER_PID=$!
for _ in $(seq 100); do grep -q LISTEN "$WORK/server.out" 2>/dev/null && break; sleep 0.1; done
PORT=$(sed -n 's/^LISTEN port=//p' "$WORK/server.out" | tr -d ' ')
[ -n "$PORT" ] || { echo "FAIL: server did not announce a TCP port"; cat "$WORK/server.err"; exit 1; }

code() { curl -s -o /dev/null -w '%{http_code}' --max-time 5 "http://127.0.0.1:$MPORT$1" || echo 000; }
health_state() {
  curl -s --max-time 5 "http://127.0.0.1:$MPORT/metrics" \
    | awk '/^netembed_health_state /{print int($2)}'
}

# Clean load leaves the server ready and live.
"$BIN/netembed_loadgen.exe" --connect "127.0.0.1:$PORT" \
  --rates 20 --duration 1 --connections 1 > /dev/null
[ "$(code /readyz)" = 200 ] || { echo "FAIL: /readyz not 200 under clean load"; exit 1; }
[ "$(code /healthz)" = 200 ] || { echo "FAIL: /healthz not 200 while serving"; exit 1; }

# Overload the one-slot queue; rejects burn the error budget, so
# readiness must flip to 503 with the health gauge at saturated (2)
# while the load is still running.
"$BIN/netembed_loadgen.exe" --connect "127.0.0.1:$PORT" \
  --rates 400 --duration 8 --connections 2 > "$WORK/healtharc.out" &
LOAD_PID=$!
SATURATED=""
for _ in $(seq 150); do
  if [ "$(code /readyz)" = 503 ] && [ "$(health_state)" -ge 2 ] 2>/dev/null; then
    SATURATED=yes
    break
  fi
  sleep 0.1
done
[ -n "$SATURATED" ] \
  || { echo "FAIL: /readyz never hit 503 with netembed_health_state >= 2 under overload"; kill "$LOAD_PID" 2>/dev/null || true; exit 1; }
wait "$LOAD_PID" || true

# Recovery: the 3 s fast window drains, hysteresis clears, 200 again.
RECOVERED=""
for _ in $(seq 300); do
  if [ "$(code /readyz)" = 200 ]; then RECOVERED=yes; break; fi
  sleep 0.1
done
[ -n "$RECOVERED" ] || { echo "FAIL: /readyz did not recover to 200 after overload"; exit 1; }

# Drain: hold a connection open so the graceful drain window is
# observable, then SIGTERM and expect liveness to report draining.
exec 9<>"/dev/tcp/127.0.0.1/$PORT"
kill -TERM "$SERVER_PID"
DRAINING=""
for _ in $(seq 100); do
  C="$(code /healthz)"
  if [ "$C" = 503 ]; then DRAINING=yes; break; fi
  [ "$C" = 000 ] && break
  sleep 0.05
done
exec 9<&- || true
exec 9>&- || true
[ -n "$DRAINING" ] || { echo "FAIL: /healthz never reported draining during shutdown"; exit 1; }
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# Preserve artifacts for CI when requested.
cp "$WORK/results.json" "${LOAD_RESULTS_OUT:-/dev/null}" 2>/dev/null || true

echo "load smoke: OK (health arc: ready -> saturated -> recovered -> draining)"
