#!/usr/bin/env bash
# The repository's end-to-end benchmark: builds the harness optimised, then
# hands it the arguments.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one measured run (the driver's form)
#   run.sh [--seed N] [--out DIR] [--runs R] [W ...]       every workload: R untraced runs + 1 traced
#   run.sh --smoke                                         tiny sizes; checks calls, checks and names
#   run.sh compare A B                                     two result directories, one verdict per row
#
# Build output, scratch files and results stay under $CARGO_TARGET_DIR
# (default .bench_build at the repository root). See benchmark/README.md.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
# A relative target directory means "relative to the repository root", which
# is where the driver starts this script.
case "${CARGO_TARGET_DIR:-}" in
    "" | /*) ;;
    *) export CARGO_TARGET_DIR="$ROOT/$CARGO_TARGET_DIR" ;;
esac

BIN="$("$HERE/build.sh" | tail -n 1)"
cd "$ROOT"
exec "$BIN" "$@"
