#!/bin/sh
# Build pqperf from the checkout's sources, then run one benchmark run:
#
#   bash perf/run.sh --workload sim-fig7 --seed 42 --seconds 10 --trace 0
#
# Run it from the root of a checkout.  Build output goes to stderr; the
# last line of stdout is the run's JSON result.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perf/run.sh: run from the root of a full checkout (no dune-project or lib/ here)" >&2
  exit 2
fi

# keep the compiler's temporary files inside the checkout too
mkdir -p _build/tmp
TMPDIR=$PWD/_build/tmp dune build --root . --cache=disabled --display=quiet ./perf/pqperf.exe 1>&2

PQPERF_NPROC=$(nproc 2>/dev/null || echo 0)
export PQPERF_NPROC
exec ./_build/default/perf/pqperf.exe run "$@"
