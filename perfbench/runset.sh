#!/usr/bin/env bash
# Runs the benchmark once per workload and seed, one run at a time, and
# keeps every record for perfcheck.exe --summary / --perf-agree:
#
#   bash perfbench/runset.sh OUTDIR TRACE SECONDS SEED...
#
# e.g. bash perfbench/runset.sh perfbench-runs/a 0 20 1 2 3 4 5 6 7 8 9 10
# Run it from the root of the checkout; records land in
# OUTDIR/<workload>-s<seed>-t<trace>.json.
set -euo pipefail

if [[ $# -lt 4 ]]; then
  echo "usage: bash perfbench/runset.sh OUTDIR TRACE SECONDS SEED..." >&2
  exit 2
fi
out=$1 trace=$2 seconds=$3
shift 3

mkdir -p "$out"
DUNE_CACHE=disabled dune build --root . perfbench/perf.exe perfbench/perfcheck.exe 1>&2
for w in spec-mem spec-ilp sweep-fig13 ni-fpma; do
  for seed in "$@"; do
    ./_build/default/perfbench/perf.exe --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" \
      --out "$out/$w-s$seed-t$trace.json" >/dev/null
    echo "$w seed $seed done" >&2
  done
done
