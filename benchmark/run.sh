#!/bin/sh
# Build the benchmark from source, then run one workload:
#   sh benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the run's JSON result.
set -e
if ! command -v dune >/dev/null 2>&1; then
  echo "run.sh: dune not found on PATH" >&2
  exit 2
fi
dune build --root . ./benchmark/flds_bench.exe 1>&2
exec ./_build/default/benchmark/flds_bench.exe run --json "$@"
