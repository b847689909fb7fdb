#!/usr/bin/env bash
# Every `python -m repro` line CI runs as a smoke test, in one place.
#
#     tools/smoke.sh [OUT_DIR]
#
# Run from the repository root.  Artifacts (paper-tables.txt,
# fuzz-stdout.txt, the chaos and flow traces, serve-out/, stream-out/,
# scenarios-out/) land in OUT_DIR
# (default: the current directory).  CI's tests job runs this script and
# uploads the artifacts; the census job runs the same script as the
# production half of the function census, so the two lists cannot drift.
set -euo pipefail
out=${1:-.}
mkdir -p "$out"
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
quiet() { "$@" > /dev/null; }

echo "== every command imports and parses (--help over the registry)"
for cmd in $(python -c "from repro.__main__ import COMMANDS; print(' '.join(COMMANDS))"); do
  quiet python -m repro "$cmd" --help
done

echo "== every paper table (the source of EXPERIMENTS.md), diffed against the committed output"
python -m repro run-all --fast > "$out/paper-tables.txt"
grep -v '^\[run_all completed in .* s wall\]$' "$out/paper-tables.txt" \
  | diff -u benchmarks/run_all_fast.txt -
quiet python -m repro utilization

echo "== chaos trace, and memory pressure under flow control (1/4 working set)"
quiet python -m repro chaos --trace "$out/chaos_trace.json"
quiet python -m repro chaos --flow 0.25 --trace "$out/flow_trace.json"

echo "== schedule fuzz (fig7 histogram), two fuzz runs print the same, then full verification"
quiet python -m repro check --fuzz 10 --workload histogram --no-oracles --no-invariants
python -m repro check --fuzz 2 --no-oracles --no-invariants > "$out/fuzz-stdout.txt"
python -m repro check --fuzz 2 --no-oracles --no-invariants | diff -u "$out/fuzz-stdout.txt" -
quiet python -m repro check --fuzz 5

echo "== query serving and streaming (guarded against the committed baselines)"
quiet python -m repro serve --loads 50 400 3200 --duration 0.5 --out "$out/serve-out"
quiet python -m repro stream --out "$out/stream-out" --baseline default

echo "== every adversarial scenario at low intensity, then the guarded chaos matrix"
quiet python -m repro scenarios list
for name in $(python -c "from repro.scenarios import names; print(' '.join(names()))"); do
  quiet python -m repro scenarios run "$name" --fast --intensity 0.5
done
quiet python -m repro scenarios sweep --fast --out "$out/scenarios-out" --baseline default
echo "smoke OK"
