#!/usr/bin/env bash
# Online churn simulator smoke test: a short-horizon three-policy run
# on a small capacitated substrate under --strict (nonzero accepts and
# zero invariant violations or the binary exits 1), then assert the
# online_churn section landed in the results JSON next to a
# pre-existing section, that it carries one row per (policy, rate)
# cell with acceptance curves, and that the document is valid JSON.
# Used by CI; runnable locally from the repo root after `dune build`.
set -euo pipefail

BIN="_build/default/bin"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

[ -x "$BIN/netembed_sim.exe" ] || { echo "run 'dune build' first" >&2; exit 2; }

# Seed the results file with a neighbour section the rewrite must
# keep.
printf '{\n  "benches": [1, 2]\n}\n' > "$WORK/results.json"

# Deterministic short run: 30 virtual seconds, well under 30 s of wall
# clock, all three policies at two offered loads.
"$BIN/netembed_sim.exe" \
  --substrate clique --nodes 8 --seed 11 \
  --policy all --rates 1.0,2.0 --horizon 30 \
  --strict --json "$WORK/results.json" \
  | tee "$WORK/sim.out"

# --strict already enforced nonzero accepts and zero invariant
# violations per cell; double-check the summary text agrees.
grep -q 'invariant violations  0' "$WORK/sim.out" \
  || { echo "FAIL: no clean invariant line in summary"; exit 1; }
if grep -E 'invariant violations  [1-9]' "$WORK/sim.out"; then
  echo "FAIL: simulator reported invariant violations"; exit 1
fi

# The online_churn section landed without disturbing its neighbour.
grep -q '"online_churn"' "$WORK/results.json" \
  || { echo "FAIL: no online_churn section"; cat "$WORK/results.json"; exit 1; }
grep -q '"benches"' "$WORK/results.json" \
  || { echo "FAIL: splice clobbered the benches section"; exit 1; }

# One row per (policy, rate) cell, each with an acceptance curve.
ROWS=$(grep -c '"acceptance_rate"' "$WORK/results.json" || true)
[ "$ROWS" -eq 6 ] \
  || { echo "FAIL: expected 6 online_churn rows, got $ROWS"; cat "$WORK/results.json"; exit 1; }
grep -q '"acceptance_curve"' "$WORK/results.json" \
  || { echo "FAIL: rows carry no acceptance_curve samples"; exit 1; }

# The whole document must still parse as JSON after the splice.
python3 -m json.tool "$WORK/results.json" > /dev/null \
  || { echo "FAIL: results.json is not valid JSON"; exit 1; }

# Preserve the artifact for CI when requested.
cp "$WORK/results.json" "${SIM_RESULTS_OUT:-/dev/null}" 2>/dev/null || true

echo "sim smoke: OK (3 policies x 2 rates, strict, online_churn spliced)"
