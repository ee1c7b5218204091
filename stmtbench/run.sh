#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it:
#   bash stmtbench/run.sh --workload oltp|analytic|adhoc --seed N --seconds S --trace 0|1
# Build output goes to standard error; the last line of standard output
# is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/core ]; then
  echo "stmtbench: no dune-project or lib/core here; run it from a checkout of the repository" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet ./stmtbench/stmtbench.exe >&2
exec ./_build/default/stmtbench/stmtbench.exe "$@"
