#!/bin/sh
# Build the benchmark from source in this checkout, then run it:
#   sh perfbench/run.sh --workload pairs --seed 1 --seconds 10 --trace 0
set -e
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
