#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call from the root of
# the repository:
#
#   bash perfbench/run.sh --workload lan_paxos --seed 1 --seconds 20 --trace 0
#
# The build log goes to stderr; stdout ends with one JSON result line.
set -euo pipefail
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
