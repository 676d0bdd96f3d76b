#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes — the binary and Go's build cache — goes
# under .bench_build in the checkout, so a run touches nothing outside
# it. BENCHMARK.json names this script as the benchmark's command; by
# hand, `go run ./benchmark ...` from the repository root does the same.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod in $root: the benchmark builds the simulator from a full checkout" >&2
	exit 1
fi
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOENV=off GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
