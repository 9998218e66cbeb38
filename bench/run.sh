#!/usr/bin/env bash
# Builds the scenario benchmark from source and runs it with the given
# flags, e.g.
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh --workload design-cold --seed 3 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache and the binary
# live under .bench_build/ in the current directory, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
go build -C bench -o "$build/scenariobench" .
exec "$build/scenariobench" "$@"
