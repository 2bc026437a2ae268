#!/usr/bin/env bash
# End-to-end metrics smoke test: start netembed_server with a metrics
# port, submit one LNS request over the wire protocol, scrape /metrics
# and assert the exposition reflects the request.  Also drives the
# failure-diagnostics path: an infeasible request must yield a failure
# certificate over EXPLAIN, bump netembed_unsat_total and write the
# flight-recorder dump.  The request-tracing layer is covered too: the
# sliding-window netembed_request_seconds summaries must appear on
# /metrics, the TOP verb must answer with phase stats and exemplars,
# and --chrome-trace must emit parseable trace_event JSON.  Used by
# CI; runnable locally from the repo root after `dune build`.
set -euo pipefail

PORT="${METRICS_PORT:-19911}"
BIN="_build/default/bin"
WORK="$(mktemp -d)"
trap 'kill "${SERVER_PID:-0}" "${SERVER2_PID:-0}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

[ -x "$BIN/netembed_server.exe" ] || { echo "run 'dune build' first" >&2; exit 2; }

"$BIN/netembed_cli.exe" generate --kind planetlab -n 40 --seed 2 -o "$WORK/host.graphml"

cat > "$WORK/frame.txt" <<'TXT'
EMBED alg=LNS mode=first timeout=5
CONSTRAINT rEdge.avgDelay < 500
GRAPHML
<graphml><graph edgedefault="undirected">
<node id="x"/><node id="y"/>
<edge source="x" target="y"/>
</graph></graphml>
.
TXT

# Feed the frame, then hold stdin open so the server stays up while we
# scrape.
mkfifo "$WORK/in"
"$BIN/netembed_server.exe" --host "$WORK/host.graphml" --metrics-port "$PORT" \
  --flight-dump "$WORK/flight.json" \
  < "$WORK/in" > "$WORK/out" &
SERVER_PID=$!
exec 3> "$WORK/in"
cat "$WORK/frame.txt" >&3

# Wait for the answer and for the metrics listener to come up.
for _ in $(seq 50); do
  grep -q "^OK" "$WORK/out" 2>/dev/null && break
  sleep 0.2
done
grep -Eq "^OK id=[0-9]+ trace=[0-9]+ outcome=complete verdict=complete" "$WORK/out" || {
  echo "FAIL: no OK answer from server"; cat "$WORK/out"; exit 1; }

METRICS=""
for _ in $(seq 50); do
  if METRICS=$(curl -sf "http://127.0.0.1:$PORT/metrics"); then break; fi
  sleep 0.2
done
[ -n "$METRICS" ] || { echo "FAIL: could not scrape /metrics"; exit 1; }

fail() { echo "FAIL: $1"; echo "$METRICS"; exit 1; }

# Request-latency histogram is non-empty.
echo "$METRICS" | grep -Eq '^netembed_request_latency_us_count [1-9]' \
  || fail "latency histogram empty"
# The LNS run shows up on the per-algorithm search counters.
echo "$METRICS" | grep -Eq '^netembed_visited_nodes_total\{algorithm="LNS"\} [1-9]' \
  || fail "no LNS visited nodes"
echo "$METRICS" | grep -Eq '^netembed_constraint_evals_total\{algorithm="LNS"\} [1-9]' \
  || fail "no LNS constraint evaluations"
# Model-revision gauge is exported.
echo "$METRICS" | grep -Eq '^netembed_model_revision ' \
  || fail "no model revision gauge"
# Sliding-window per-phase latency summaries: the request landed inside
# the 60 s window, so the total series has a count and quantile samples,
# and the search phase was exercised.
echo "$METRICS" \
  | grep -Eq '^netembed_request_seconds_count\{phase="total",window="60s"\} [1-9]' \
  || fail "windowed total latency series empty"
echo "$METRICS" \
  | grep -Eq '^netembed_request_seconds\{phase="total",quantile="0.99",window="60s"\} ' \
  || fail "no windowed p99 quantile sample"
echo "$METRICS" \
  | grep -Eq '^netembed_request_seconds_count\{phase="search",window="60s"\} [1-9]' \
  || fail "windowed search-phase series empty"
# Lifetime per-phase totals ride on gauges.
echo "$METRICS" | grep -Eq '^netembed_phase_seconds_total\{phase="search"\} ' \
  || fail "no per-phase seconds gauge"
# JSON exposition and liveness probe answer too.
curl -sf "http://127.0.0.1:$PORT/metrics.json" > "$WORK/metrics.json" \
  || fail "could not fetch /metrics.json"
python3 -m json.tool "$WORK/metrics.json" > /dev/null \
  || fail "/metrics.json is not valid JSON"
grep -q '"netembed_requests_total"' "$WORK/metrics.json" \
  || fail "/metrics.json missing requests counter"
curl -sf "http://127.0.0.1:$PORT/healthz" | grep -q '^ok' \
  || fail "/healthz not ok"

# --- resource ledger: ALLOC a small capacitated query, then UTIL ------
cat > "$WORK/alloc.txt" <<'TXT'
ALLOC alg=LNS mode=first timeout=5
CONSTRAINT rEdge.avgDelay < 500 && rEdge.bandwidth >= vEdge.bandwidth
NODECONSTRAINT rSource.cpuMhz >= vSource.cpuMhz
GRAPHML
<graphml>
<key id="cpuMhz" for="node" attr.name="cpuMhz" attr.type="double"/>
<key id="bandwidth" for="edge" attr.name="bandwidth" attr.type="double"/>
<graph edgedefault="undirected">
<node id="x"><data key="cpuMhz">50</data></node>
<node id="y"><data key="cpuMhz">50</data></node>
<edge source="x" target="y"><data key="bandwidth">1</data></edge>
</graph></graphml>
.
UTIL
.
TXT
cat "$WORK/alloc.txt" >&3

for _ in $(seq 50); do
  grep -q "^OK resources=" "$WORK/out" 2>/dev/null && break
  sleep 0.2
done
grep -Eq '^OK id=[0-9]+ .*outcome=complete.* allocation=[1-9]' "$WORK/out" \
  || { echo "FAIL: ALLOC did not commit"; cat "$WORK/out"; exit 1; }
grep -Eq '^UTIL resource=cpuMhz kind=node used=[1-9]' "$WORK/out" \
  || { echo "FAIL: UTIL shows no cpuMhz usage"; cat "$WORK/out"; exit 1; }

METRICS=$(curl -sf "http://127.0.0.1:$PORT/metrics") \
  || { echo "FAIL: could not re-scrape /metrics"; exit 1; }
# Allocation accounting counters and gauges.
echo "$METRICS" | grep -Eq '^netembed_allocations_total [1-9]' \
  || fail "no committed allocation counted"
echo "$METRICS" | grep -Eq '^netembed_allocation_rejects_total ' \
  || fail "no allocation-rejects counter"
echo "$METRICS" | grep -Eq '^netembed_admission_rejects_total ' \
  || fail "no admission-rejects counter"
echo "$METRICS" | grep -Eq '^netembed_active_allocations [1-9]' \
  || fail "no active allocation on the gauge"
# Per-resource utilization gauges carry resource/kind labels and the
# committed charge moved the node-cpu gauge off zero.
echo "$METRICS" \
  | grep -E '^netembed_resource_utilization\{' \
  | grep -E 'resource="cpuMhz"' | grep -E 'kind="node"' \
  | grep -Evq ' 0(\.0+)?$' \
  || fail "cpuMhz node utilization gauge not positive"
echo "$METRICS" | grep -E '^netembed_resource_utilization\{' \
  | grep -E 'resource="bandwidth"' | grep -Eq 'kind="edge"' \
  || fail "no bandwidth edge utilization gauge"

# --- explain: infeasible request, EXPLAIN certificate, unsat counter --
cat > "$WORK/unsat.txt" <<'TXT'
EMBED alg=ECF mode=all
CONSTRAINT true
NODECONSTRAINT rSource.cpuMhz >= 99999999
GRAPHML
<graphml><graph edgedefault="undirected">
<node id="x"/><node id="y"/>
<edge source="x" target="y"/>
</graph></graphml>
.
TXT
cat "$WORK/unsat.txt" >&3

for _ in $(seq 50); do
  grep -q "verdict=unsat" "$WORK/out" 2>/dev/null && break
  sleep 0.2
done
grep -Eq '^OK id=[0-9]+ .*verdict=unsat count=0' "$WORK/out" \
  || { echo "FAIL: infeasible request did not come back unsat"; cat "$WORK/out"; exit 1; }
UNSAT_ID=$(grep -E '^OK id=[0-9]+ .*verdict=unsat' "$WORK/out" | head -1 \
  | sed -E 's/^OK id=([0-9]+).*/\1/')

printf 'EXPLAIN %s\n.\n' "$UNSAT_ID" >&3
for _ in $(seq 50); do
  grep -q "^OK explain=$UNSAT_ID" "$WORK/out" 2>/dev/null && break
  sleep 0.2
done
grep -Eq "^OK explain=$UNSAT_ID trace=[0-9]+ verdict=unsat" "$WORK/out" \
  || { echo "FAIL: EXPLAIN returned no certificate"; cat "$WORK/out"; exit 1; }
grep -q "^PHASES " "$WORK/out" \
  || { echo "FAIL: EXPLAIN carries no phase breakdown"; cat "$WORK/out"; exit 1; }
grep -q "^TEXT blamed node" "$WORK/out" \
  || { echo "FAIL: certificate blames no query node"; cat "$WORK/out"; exit 1; }
grep -q "^TEXT   near miss " "$WORK/out" \
  || { echo "FAIL: certificate lists no near-miss host"; cat "$WORK/out"; exit 1; }
grep -Eq '^JSON \{"verdict":"unsat"' "$WORK/out" \
  || { echo "FAIL: no JSON certificate line"; cat "$WORK/out"; exit 1; }

# The flight-recorder dump (the CI artifact) was written for the
# failed request and carries the certificate.
[ -s "$WORK/flight.json" ] \
  || { echo "FAIL: no flight-recorder dump written"; exit 1; }
python3 -m json.tool "$WORK/flight.json" > /dev/null \
  || { echo "FAIL: flight dump is not valid JSON"; cat "$WORK/flight.json"; exit 1; }
grep -q '"verdict":"unsat"' "$WORK/flight.json" \
  || { echo "FAIL: flight dump lacks the certificate"; cat "$WORK/flight.json"; exit 1; }
cp "$WORK/flight.json" "${FLIGHT_DUMP_OUT:-/dev/null}" 2>/dev/null || true

METRICS=$(curl -sf "http://127.0.0.1:$PORT/metrics") \
  || { echo "FAIL: could not re-scrape /metrics"; exit 1; }
echo "$METRICS" | grep -Eq '^netembed_unsat_total\{cause="node_constraint"\} [1-9]' \
  || fail "netembed_unsat_total did not increment for the unsat request"
echo "$METRICS" | grep -Eq '^netembed_blame_eliminations_total\{cause="node_constraint"\} [1-9]' \
  || fail "no blame-by-constraint counter"

# --- TOP: phase-latency triage report over the wire ------------------
# The unsat request above is retained in the diagnostics ring, so the
# report carries both the per-phase table and at least one exemplar.
printf 'TOP\n.\n' >&3
for _ in $(seq 50); do
  grep -q "^OK phases=" "$WORK/out" 2>/dev/null && break
  sleep 0.2
done
grep -Eq '^OK phases=[1-9][0-9]* worst=[0-9]+ window=60' "$WORK/out" \
  || { echo "FAIL: TOP returned no report header"; cat "$WORK/out"; exit 1; }
grep -Eq '^PHASE name=search total=[0-9.]+ count=[0-9]+ p50=' "$WORK/out" \
  || { echo "FAIL: TOP lists no search phase stats"; cat "$WORK/out"; exit 1; }
grep -Eq '^SLOW id=[0-9]+ trace=[0-9]+ verdict=' "$WORK/out" \
  || { echo "FAIL: TOP lists no slow-request exemplar"; cat "$WORK/out"; exit 1; }

# --- parallel path + filter cache: second server on two domains ------
# The blame/EXPLAIN assertions above need the sequential path (the
# parallel path returns no certificate), so the work-stealing service
# and its counters are exercised by a separate instance.
PORT2=$((PORT + 1))
mkfifo "$WORK/in2"
"$BIN/netembed_server.exe" --host "$WORK/host.graphml" --metrics-port "$PORT2" \
  --domains 2 --chrome-trace "$WORK/chrome.json" < "$WORK/in2" > "$WORK/out2" &
SERVER2_PID=$!
exec 4> "$WORK/in2"

cat > "$WORK/par.txt" <<'TXT'
EMBED alg=ECF mode=all timeout=10
CONSTRAINT rEdge.avgDelay < 100
GRAPHML
<graphml><graph edgedefault="undirected">
<node id="x"/><node id="y"/>
<edge source="x" target="y"/>
</graph></graphml>
.
TXT
# The identical frame twice: the second submit must hit the filter
# cache (same model revision, same query signature).  Scrape between
# the two so the warm submit's effect on the specialization counter
# is observable in isolation.
cat "$WORK/par.txt" >&4

for _ in $(seq 100); do
  grep -q '^OK' "$WORK/out2" 2>/dev/null && break
  sleep 0.2
done
COLD=""
for _ in $(seq 50); do
  if COLD=$(curl -sf "http://127.0.0.1:$PORT2/metrics"); then break; fi
  sleep 0.2
done
[ -n "$COLD" ] || { echo "FAIL: could not scrape two-domain /metrics"; exit 1; }
# The cold submit specialized its constraint per query edge.
echo "$COLD" | grep -Eq '^netembed_expr_compiles_total [1-9]' \
  || { echo "FAIL: no constraint specializations after the cold submit"; echo "$COLD"; exit 1; }
COMPILES_COLD=$(echo "$COLD" | sed -nE 's/^netembed_expr_compiles_total ([0-9]+).*/\1/p')

cat "$WORK/par.txt" >&4
for _ in $(seq 100); do
  [ "$(grep -c '^OK' "$WORK/out2" 2>/dev/null || true)" -ge 2 ] && break
  sleep 0.2
done
[ "$(grep -Ec '^OK id=[0-9]+ .*outcome=complete' "$WORK/out2" || true)" -ge 2 ] \
  || { echo "FAIL: two-domain server did not answer both requests"; cat "$WORK/out2"; exit 1; }

METRICS=$(curl -sf "http://127.0.0.1:$PORT2/metrics") \
  || { echo "FAIL: could not scrape two-domain /metrics"; exit 1; }
# Cold submit missed, warm submit hit.
echo "$METRICS" | grep -Eq '^netembed_filter_cache_misses_total [1-9]' \
  || fail "no filter-cache miss on the cold submit"
echo "$METRICS" | grep -Eq '^netembed_filter_cache_hits_total [1-9]' \
  || fail "no filter-cache hit on the warm submit"
# The cache entry carries the specialized residuals: the warm submit
# must not have specialized anything.
COMPILES_WARM=$(echo "$METRICS" | sed -nE 's/^netembed_expr_compiles_total ([0-9]+).*/\1/p')
[ "$COMPILES_WARM" = "$COMPILES_COLD" ] \
  || fail "warm submit re-specialized constraints ($COMPILES_COLD -> $COMPILES_WARM)"
# The steal counter series is exposed (pre-registered; its value
# depends on scheduling, so only presence is asserted).
echo "$METRICS" | grep -Eq '^netembed_steals_total [0-9]' \
  || fail "no steals counter series"
# The parallel path merged the per-domain search counters.
echo "$METRICS" | grep -Eq '^netembed_visited_nodes_total\{algorithm="ECF"\} [1-9]' \
  || fail "parallel ECF visited nodes missing"

# --- Chrome trace: --chrome-trace wrote well-formed trace_event JSON --
# The two-domain server traces every request; the dump is the latest
# request's buffer, including the spans the worker domains recorded.
[ -s "$WORK/chrome.json" ] \
  || { echo "FAIL: no Chrome trace written"; exit 1; }
python3 -m json.tool "$WORK/chrome.json" > /dev/null \
  || { echo "FAIL: Chrome trace is not valid JSON"; cat "$WORK/chrome.json"; exit 1; }
grep -q '"traceEvents"' "$WORK/chrome.json" \
  || { echo "FAIL: Chrome trace lacks traceEvents"; cat "$WORK/chrome.json"; exit 1; }
grep -q '"trace_id"' "$WORK/chrome.json" \
  || { echo "FAIL: Chrome trace spans carry no trace id"; exit 1; }
# Phases are timed into the trace under their own names.
grep -q '"name":"search"' "$WORK/chrome.json" \
  || { echo "FAIL: Chrome trace has no search phase span"; cat "$WORK/chrome.json"; exit 1; }
cp "$WORK/chrome.json" "${CHROME_TRACE_OUT:-/dev/null}" 2>/dev/null || true

exec 3>&-
exec 4>&-
wait "$SERVER_PID" 2>/dev/null || true
wait "$SERVER2_PID" 2>/dev/null || true
echo "metrics smoke: OK"
