#!/usr/bin/env bash
# End-to-end benchmark of the iolb commands.  Builds the CLI and the
# benchmark (perfbench/main.exe) from source with dune, then runs the
# benchmark from the repository root:
#
#   bash perfbench/run.sh --workload derive --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --self-test
#
# See perfbench/README.md for the workloads and metrics.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -d examples/kernels ]; then
  echo "perfbench: $(pwd) is not an iolb source tree" >&2
  exit 2
fi
# Build output goes to stderr; stdout carries only the benchmark's report.
dune build --root . --display quiet bin/iolb_cli.exe perfbench/main.exe 1>&2
status=0
./_build/default/perfbench/main.exe "$@" || status=$?
rmdir .perfbench 2>/dev/null || true
exit "$status"
