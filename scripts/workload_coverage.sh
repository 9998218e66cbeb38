#!/usr/bin/env bash
# Lists the internal functions that no scenario-benchmark workload
# reaches. Builds the benchmark with coverage instrumentation of every
# repro package, runs each workload once at seed 1, and prints the
# functions under repro/internal/ whose statement coverage stays at 0%,
# one `file:line: function 0.0%` line each.
#
# Usage:
#   scripts/workload_coverage.sh [seconds]   # measured seconds per workload (default 5)
#
# Run it from the repository root. It uses bench/run.sh's build
# environment, so the build cache, the instrumented binary, the coverage
# counters and the workload results all stay under .bench_build/.
set -euo pipefail

seconds=${1:-5}
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
go build -C bench -cover -coverpkg=repro/... -o "$build/scenariobench-cover" .

covdir="$build/cover"
rm -rf "$covdir" "$build/cover-out"
mkdir -p "$covdir"
for w in design-cold analysis-warm service-mixed; do
	echo "== $w" >&2
	GOCOVERDIR="$covdir" "$build/scenariobench-cover" -workload "$w" -seed 1 \
		-seconds "$seconds" -out "$build/cover-out" >/dev/null
done
go tool covdata func -i="$covdir" | awk '$1 ~ /^repro\/internal\// && $NF == "0.0%"'
