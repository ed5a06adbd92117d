#!/usr/bin/env bash
# bench/run.sh — build the benchmark from source and run it.
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       JSON result (this is what BENCHMARK.json's command is given).
#   bench/run.sh [-seed N] [-seconds S] [-sets K]
#       every workload, untraced and traced, the budget tables and
#       bench/out/*.json; -sets 2 also checks two sets against the bounds.
#
# Everything the build and the runs write stays inside the checkout: the
# Go build cache and the binary under .bench_build/, results and scratch
# files under bench/out/. Neither is tracked by git.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

if [ ! -f go.mod ]; then
    echo "bench/run.sh: no go.mod here — the benchmark builds the repository's own packages and cannot run without them" >&2
    exit 1
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOFLAGS="-mod=mod"
export GOTOOLCHAIN=local
# The go command's telemetry counters would otherwise land in $HOME.
export XDG_CONFIG_HOME="$build/config"

go build -o "$build/edbench" ./bench
exec "$build/edbench" "$@"
