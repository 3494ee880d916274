#!/usr/bin/env bash
# Builds the server and the benchmark client from source, then runs the
# benchmark.  Run from the root of a checkout:
#   bash perfbench/run.sh --workload point-oltp --seed 1 --seconds 10 --trace 0
# Build output goes to stderr so the last stdout line stays the result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./bin/aimd.exe ./perfbench/wire_bench.exe 1>&2
exec ./_build/default/perfbench/wire_bench.exe --aimd ./_build/default/bin/aimd.exe "$@"
