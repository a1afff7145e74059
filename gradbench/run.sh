#!/usr/bin/env bash
# Build the gradient-request benchmark from source and run it.
#
#   bash gradbench/run.sh --workload warm_shm --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Build output goes to stderr; the last
# line of stdout is the JSON result. Scratch files (checkpoint spills,
# Chrome traces) stay under gradbench/out.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/server ]; then
  echo "gradbench: not a full checkout (dune-project or lib/ is missing)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./gradbench/main.exe >&2
mkdir -p gradbench/out/tmp
TMPDIR="$PWD/gradbench/out/tmp" exec ./_build/default/gradbench/main.exe --out gradbench/out "$@"
