#!/usr/bin/env bash
# Run the full benchmark suite and record the results as JSON so the
# performance trajectory is trackable across PRs.
#
# Usage:
#   scripts/bench.sh [benchtime]           # default 1x (smoke); use e.g. 5x or 1s for real numbers
#
# Environment:
#   BENCH_TAGS    extra build tags, e.g. BENCH_TAGS=slowbench to include
#                 the million-node/HOT scaling slice in the baseline
#   BENCH_CPU     -cpu list for the per-commit tier, e.g. BENCH_CPU=1,2
#   BENCH_COUNT   -count for the per-commit tier (default 1). cmd/benchdiff
#                 keeps the WORST line per benchmark name, so -count 3
#                 records each baseline entry at its observed noise
#                 ceiling — a fresh single-sample run then only trips the
#                 gate on a real regression, not on scheduler jitter.
#
# Two passes: the per-commit tier (-short, what scripts/benchdiff.sh
# re-runs on every commit) at the requested benchtime/BENCH_CPU, then
# the scaling tier (BenchmarkScale*) at -benchtime 1x serial — those
# numbers are informational (the gate's -short fresh run never sees
# them) and a 20-iteration 10M-node sweep would take hours. To record a
# baseline the gate can hold to its tolerance, match its conditions:
#
#   BENCH_CPU=1,2 BENCH_COUNT=3 scripts/bench.sh 20x
#
# (-cpu 1,2 matches scripts/benchdiff.sh: the worst-leg normalization in
# cmd/benchdiff keeps the slower of the two widths on both sides.)
#
# Output: BENCH_<yyyymmdd>.json in the repo root:
#   {"meta": {commit, go_version, gomaxprocs, goos, goarch, date},
#    "benchmarks": [{"name": ..., "iterations": N, "ns_per_op": ...,
#                    "bytes_per_op": ..., "allocs_per_op": ...,
#                    "counters": {"scanned/op": ...}}, ...]}
# (bytes/allocs present only for benchmarks that report them; counters
# are the b.ReportMetric per-op work counts, which cmd/benchdiff gates
# exactly). The meta stamp lets cmd/benchdiff refuse cross-machine
# comparisons.
set -euo pipefail

cd "$(dirname "$0")/.."
BENCHTIME="${1:-1x}"
OUT="BENCH_$(date +%Y%m%d).json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
GO_VERSION="$(go env GOVERSION)"
GOOS="$(go env GOOS)"
GOARCH="$(go env GOARCH)"
# The effective GOMAXPROCS of the run: the env override when set, the
# core count otherwise (the Go runtime's default).
MAXPROCS="${GOMAXPROCS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)}"

CPU_ARGS=()
if [[ -n "${BENCH_CPU:-}" ]]; then
    CPU_ARGS=(-cpu "$BENCH_CPU")
fi

# Pass 1: the per-commit tier under the same conditions the benchdiff
# gate re-runs it (-short skips the scaling tier).
go test -run '^$' -bench . -benchtime "$BENCHTIME" -benchmem -short -count "${BENCH_COUNT:-1}" ${CPU_ARGS[@]+"${CPU_ARGS[@]}"} -timeout 90m ./... | tee "$RAW"

# Pass 2: the scaling tier, 1x serial. -timeout 90m: with
# BENCH_TAGS=slowbench the root package alone grows and traverses
# several million-node topologies, well past go test's default 10m.
go test ${BENCH_TAGS:+-tags "$BENCH_TAGS"} -run '^$' -bench 'BenchmarkScale' -benchtime 1x -benchmem -timeout 90m ./... | tee -a "$RAW"

awk -v commit="$COMMIT" -v gover="$GO_VERSION" -v maxprocs="$MAXPROCS" \
    -v goos="$GOOS" -v goarch="$GOARCH" -v date="$(date +%Y-%m-%d)" '
BEGIN {
    print "{"
    printf("  \"meta\": {\"commit\": \"%s\", \"go_version\": \"%s\", \"gomaxprocs\": %s, \"goos\": \"%s\", \"goarch\": \"%s\", \"date\": \"%s\"},\n",
           commit, gover, maxprocs, goos, goarch, date)
    print "  \"benchmarks\": ["
    first = 1
}
/^Benchmark/ {
    name = $1; iters = $2; ns = ""
    bytes = ""; allocs = ""; counters = ""
    for (i = 3; i < NF; i++) {
        unit = $(i+1)
        if (unit == "ns/op")          ns = $i
        else if (unit == "B/op")      bytes = $i
        else if (unit == "allocs/op") allocs = $i
        else if (unit ~ /\/op$/)      counters = counters (counters == "" ? "" : ", ") sprintf("\"%s\": %s", unit, $i)
    }
    if (ns == "") next
    if (!first) printf(",\n")
    first = 0
    printf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
    if (bytes != "")    printf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "")   printf(", \"allocs_per_op\": %s", allocs)
    if (counters != "") printf(", \"counters\": {%s}", counters)
    printf("}")
}
END { print "\n  ]\n}" }
' "$RAW" > "$OUT"

echo "wrote $OUT"
