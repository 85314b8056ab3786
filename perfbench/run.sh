#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the root of an MI6 checkout.  Build output goes to stderr
# so that the benchmark's own output is all that reaches stdout.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib ]]; then
  echo "perfbench: run from the root of an MI6 checkout (no dune-project and lib/ here)" >&2
  exit 2
fi

# Dune's shared cache lives outside the checkout; build without it.
export DUNE_CACHE=disabled
dune build --root . perfbench/perf.exe 1>&2
exec ./_build/default/perfbench/perf.exe "$@"
