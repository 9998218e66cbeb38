#!/usr/bin/env bash
# Gate benchmark regressions against the committed baseline.
#
# Runs the benchmark suite once (smoke mode: -benchtime 1x, -short so the
# scaling tier is skipped), then compares against the lexically-latest
# BENCH_*.json in the repo root with cmd/benchdiff. Fails when a kernel
# recorded as allocation-free now allocates, or when ns/op regresses
# beyond the tolerance, or when a b.ReportMetric work counter rises.
# It runs go test with -v, so a benchmark that skips itself (the scaling
# tier under -short) prints `--- SKIP` and is reported as skipped, and it
# passes -require-all, so a baseline benchmark that no longer runs at all
# fails the gate.
#
# Usage:
#   scripts/benchdiff.sh [baseline.json]
#
# Environment:
#   BENCHDIFF_TOLERANCE   fractional ns/op growth allowed (default 0.25;
#                         CI uses a generous value because -benchtime 1x
#                         numbers on shared runners are noisy — the exact
#                         allocs/op gate is the load-bearing check there)
#   BENCHDIFF_BENCH       benchmark filter regexp (default: all; a filter
#                         drops -require-all, since it leaves baseline
#                         benchmarks out on purpose)
#   BENCHDIFF_ALLOW_CROSS set to 1 to compare against a baseline recorded
#                         on a different machine/toolchain (benchdiff
#                         refuses by default when the meta stamps
#                         disagree; CI runners differ from the recording
#                         machine, so CI sets this explicitly)
set -euo pipefail

cd "$(dirname "$0")/.."
BASELINE="${1:-}"
if [[ -z "$BASELINE" ]]; then
    BASELINE="$(ls BENCH_*.json 2>/dev/null | sort | tail -n 1 || true)"
fi
if [[ -z "$BASELINE" || ! -f "$BASELINE" ]]; then
    echo "benchdiff.sh: no baseline BENCH_*.json found (run scripts/bench.sh first)" >&2
    exit 2
fi
TOLERANCE="${BENCHDIFF_TOLERANCE:-0.25}"
BENCH="${BENCHDIFF_BENCH:-.}"
REQUIRE_FLAG="-require-all"
if [[ -n "${BENCHDIFF_BENCH:-}" ]]; then
    REQUIRE_FLAG=""
fi
FRESH="$(mktemp)"
trap 'rm -f "$FRESH"' EXIT

echo "benchdiff.sh: baseline $BASELINE, tolerance $TOLERANCE"
# -cpu 1,2 runs every benchmark at both widths, the legs the baseline
# records; benchdiff normalizes the two lines to one name and keeps the
# worst measurement, so a single-thread regression cannot hide behind a
# faster parallel leg.
# -benchtime 20x (not 1x): switching GOMAXPROCS between legs makes the
# runtime allocate a handful of objects one time, which a 1-iteration
# run would misreport as allocs/op and trip the exact gate; 20
# iterations amortize one-time noise to 0 while any real per-op
# allocation still reads >= 1.
go test -run '^$' -bench "$BENCH" -benchtime 20x -benchmem -short -v -cpu 1,2 ./... | tee "$FRESH"

CROSS_FLAG=""
if [[ "${BENCHDIFF_ALLOW_CROSS:-0}" == "1" ]]; then
    CROSS_FLAG="-allow-cross-machine"
fi
go run ./cmd/benchdiff -baseline "$BASELINE" -fresh "$FRESH" -tolerance "$TOLERANCE" -quiet $CROSS_FLAG $REQUIRE_FLAG
