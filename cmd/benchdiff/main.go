// Command benchdiff gates benchmark regressions against a committed
// baseline. It compares a fresh benchmark run (either raw `go test
// -bench` text output or a scripts/bench.sh JSON file) with a baseline
// JSON file and fails when:
//
//   - a kernel the baseline records as allocation-free (allocs/op == 0)
//     now allocates — gated exactly, any alloc is a regression;
//   - a work counter rises above its baseline — gated exactly, like the
//     allocation gate. A counter is any per-op column a benchmark adds
//     with b.ReportMetric (`scanned/op`, `bu-levels/op`, `dsu-ops/op`,
//     `evals/op`, `cells/op`, `ks-terms/op`): rows scanned, levels run,
//     union-find operations, attachment candidates evaluated, index cells
//     tested or model-CDF terms, which are the same on every machine;
//   - a benchmark's ns/op exceeds baseline * (1 + tolerance).
//
// Improvements and new benchmarks never fail. A baseline benchmark that
// the fresh run skipped (the `--- SKIP: BenchmarkX` line `go test -v`
// prints for b.Skip, as the per-commit run's -short does for the scaling
// tier the recorded baseline includes) is reported as skipped and never
// fails. One absent from the fresh run altogether only warns unless
// -require-all is set, as scripts/benchdiff.sh sets it. A counter the
// fresh run reports for a baseline benchmark that the baseline lacks has
// nothing to be gated against, so it warns once per benchmark and unit
// until the baseline is re-recorded.
//
// Baselines recorded by scripts/bench.sh carry a meta stamp (commit, go
// version, GOMAXPROCS, platform). When it disagrees with the fresh
// side's environment the comparison is refused (exit 2) rather than
// silently gated on numbers from a different machine; pass
// -allow-cross-machine to compare anyway with a warning. A one-line
// geomean ns/op summary over the common benchmarks closes every run.
//
// Usage:
//
//	benchdiff -baseline BENCH_20260807.json -fresh out.txt [-tolerance 0.25] [-require-all]
//
// Exit status 1 on any regression, 0 otherwise.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one benchmark measurement, matching the field names
// scripts/bench.sh records.
type benchResult struct {
	Name      string   `json:"name"`
	NsPerOp   float64  `json:"ns_per_op"`
	BytesOp   *float64 `json:"bytes_per_op"`
	AllocsOp  *float64 `json:"allocs_per_op"`
	Iteration int64    `json:"iterations"`
	// Skipped marks a benchmark the fresh run skipped: it has no
	// measurement. bench.sh never records one.
	Skipped bool `json:"-"`
	// Counters holds the b.ReportMetric work counters by unit, e.g.
	// {"scanned/op": 1234}.
	Counters map[string]float64 `json:"counters,omitempty"`
}

// isCounter reports whether a benchmark output unit is a work counter:
// a per-op unit other than go test's own ns/op, B/op and allocs/op.
func isCounter(unit string) bool {
	switch unit {
	case "ns/op", "B/op", "allocs/op":
		return false
	}
	return strings.HasSuffix(unit, "/op")
}

// benchMeta is the recording-environment stamp scripts/bench.sh embeds
// in its JSON output. Comparing ns/op across different machines (or go
// toolchains, or GOMAXPROCS settings) is meaningless, so benchdiff uses
// it to refuse such comparisons instead of silently gating on them.
type benchMeta struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Date       string `json:"date"`
}

// benchFile is the object form of a bench.sh recording.
type benchFile struct {
	Meta       *benchMeta    `json:"meta"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// parseFile loads benchmark results from a bench.sh JSON file (the
// current {"meta": ..., "benchmarks": [...]} object form or the legacy
// bare array) or raw `go test -bench` text output, keyed by benchmark
// name (with the -N GOMAXPROCS suffix stripped so -cpu legs align). The
// meta stamp is nil for the legacy and raw-text forms.
func parseFile(path string) (map[string]benchResult, *benchMeta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && (trimmed[0] == '[' || trimmed[0] == '{') {
		var list []benchResult
		var meta *benchMeta
		if trimmed[0] == '[' {
			if err := json.Unmarshal(data, &list); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", path, err)
			}
		} else {
			var f benchFile
			if err := json.Unmarshal(data, &f); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", path, err)
			}
			list, meta = f.Benchmarks, f.Meta
		}
		out := make(map[string]benchResult, len(list))
		for _, r := range list {
			keep(out, r)
		}
		return out, meta, nil
	}
	out, err := parseBenchText(data)
	return out, nil, err
}

// keep records r under its normalized name. A `go test -cpu 1,2` run
// produces one line per GOMAXPROCS value that normalize to the same
// name; the gate keeps the WORST measurement of the set (max ns/op, max
// allocations, max of each counter), so a single-thread regression
// cannot hide behind a faster parallel leg and an allocation or extra
// work picked up at any width still trips the exact gates. A measured
// leg outranks a skipped one.
func keep(out map[string]benchResult, r benchResult) {
	name := normalizeName(r.Name)
	r.Name = name
	prev, ok := out[name]
	if !ok || prev.Skipped {
		out[name] = r
		return
	}
	if r.Skipped {
		return
	}
	if r.NsPerOp > prev.NsPerOp {
		prev.NsPerOp = r.NsPerOp
		prev.Iteration = r.Iteration
	}
	prev.BytesOp = maxPtr(prev.BytesOp, r.BytesOp)
	prev.AllocsOp = maxPtr(prev.AllocsOp, r.AllocsOp)
	for unit, v := range r.Counters {
		if old, ok := prev.Counters[unit]; !ok || v > old {
			if prev.Counters == nil {
				prev.Counters = map[string]float64{}
			}
			prev.Counters[unit] = v
		}
	}
	out[name] = prev
}

func maxPtr(a, b *float64) *float64 {
	if a == nil {
		return b
	}
	if b != nil && *b > *a {
		return b
	}
	return a
}

// parseBenchText parses raw `go test -bench -benchmem` output lines of
// the form:
//
//	BenchmarkX-8   100   12345 ns/op   64 B/op   2 allocs/op   4500 scanned/op
//
// and, from a -v run, the `--- SKIP: BenchmarkX` lines of benchmarks
// that called b.Skip, which it records as skipped.
func parseBenchText(data []byte) (map[string]benchResult, error) {
	out := map[string]benchResult{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 3 && fields[0] == "---" && fields[1] == "SKIP:" && strings.HasPrefix(fields[2], "Benchmark") {
			keep(out, benchResult{Name: fields[2], Skipped: true})
			continue
		}
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		r := benchResult{Name: fields[0]}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r.Iteration = iters
		ok := false
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
				ok = true
			case "B/op":
				b := v
				r.BytesOp = &b
			case "allocs/op":
				a := v
				r.AllocsOp = &a
			default:
				if isCounter(fields[i+1]) {
					if r.Counters == nil {
						r.Counters = map[string]float64{}
					}
					r.Counters[fields[i+1]] = v
				}
			}
		}
		if ok {
			keep(out, r)
		}
	}
	return out, sc.Err()
}

// normalizeName strips the trailing -N parallelism suffix go test
// appends to benchmark names.
func normalizeName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// diffLine is one comparison verdict.
type diffLine struct {
	text string
	fail bool
}

// compare applies the gate to every baseline benchmark. tolerance is
// the allowed fractional ns/op growth (0.25 = +25%).
func compare(baseline, fresh map[string]benchResult, tolerance float64, requireAll bool) []diffLine {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []diffLine
	for _, name := range names {
		base := baseline[name]
		got, ok := fresh[name]
		if got.Skipped {
			out = append(out, diffLine{text: fmt.Sprintf("SKIP    %s (skipped in fresh run)", name)})
			continue
		}
		if !ok {
			out = append(out, diffLine{
				text: fmt.Sprintf("MISSING %s (in baseline, not in fresh run)", name),
				fail: requireAll,
			})
			continue
		}
		if base.AllocsOp != nil && *base.AllocsOp == 0 && got.AllocsOp != nil && *got.AllocsOp > 0 {
			out = append(out, diffLine{
				text: fmt.Sprintf("FAIL    %s: allocs/op %g, baseline 0 (allocation-free kernel regressed)", name, *got.AllocsOp),
				fail: true,
			})
			continue
		}
		units := make([]string, 0, len(base.Counters))
		for unit := range base.Counters {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			if v, ok := got.Counters[unit]; ok && v > base.Counters[unit] {
				out = append(out, diffLine{
					text: fmt.Sprintf("FAIL    %s: %s %g exceeds baseline %g (work counter regressed)", name, unit, v, base.Counters[unit]),
					fail: true,
				})
			}
		}
		units = units[:0]
		for unit := range got.Counters {
			if _, ok := base.Counters[unit]; !ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			out = append(out, diffLine{
				text: fmt.Sprintf("WARN    %s: %s %g is not in the baseline (ungated until it is re-recorded)", name, unit, got.Counters[unit]),
			})
		}
		limit := base.NsPerOp * (1 + tolerance)
		switch {
		case got.NsPerOp > limit:
			out = append(out, diffLine{
				text: fmt.Sprintf("FAIL    %s: %.0f ns/op exceeds baseline %.0f +%d%% (limit %.0f)",
					name, got.NsPerOp, base.NsPerOp, int(tolerance*100), limit),
				fail: true,
			})
		default:
			out = append(out, diffLine{
				text: fmt.Sprintf("ok      %s: %.0f ns/op (baseline %.0f)", name, got.NsPerOp, base.NsPerOp),
			})
		}
	}
	for name, r := range fresh {
		if _, ok := baseline[name]; !ok && !r.Skipped {
			out = append(out, diffLine{text: fmt.Sprintf("NEW     %s (not in baseline)", name)})
		}
	}
	return out
}

// machineMismatch reports why comparing against the baseline would be a
// cross-machine/toolchain comparison, or "" when the environments match
// (or cannot be checked). A nil freshMeta means the fresh side is a raw
// `go test` run from THIS process's environment, so the runtime's own
// go version and GOMAXPROCS stand in for it.
func machineMismatch(base, fresh *benchMeta) string {
	if base == nil {
		return "" // legacy baseline without a meta stamp: nothing to check
	}
	fv, fp := runtime.Version(), runtime.GOMAXPROCS(0)
	fos, farch := runtime.GOOS, runtime.GOARCH
	if fresh != nil {
		fv, fp, fos, farch = fresh.GoVersion, fresh.GoMaxProcs, fresh.GOOS, fresh.GOARCH
	}
	var why []string
	if base.GoVersion != "" && fv != "" && base.GoVersion != fv {
		why = append(why, fmt.Sprintf("go version %s vs baseline %s", fv, base.GoVersion))
	}
	if base.GoMaxProcs > 0 && fp > 0 && base.GoMaxProcs != fp {
		why = append(why, fmt.Sprintf("GOMAXPROCS %d vs baseline %d", fp, base.GoMaxProcs))
	}
	if base.GOOS != "" && fos != "" && base.GOOS != fos {
		why = append(why, fmt.Sprintf("GOOS %s vs baseline %s", fos, base.GOOS))
	}
	if base.GOARCH != "" && farch != "" && base.GOARCH != farch {
		why = append(why, fmt.Sprintf("GOARCH %s vs baseline %s", farch, base.GOARCH))
	}
	return strings.Join(why, ", ")
}

// geomeanLine summarizes the run in one line: the geometric mean ns/op
// of the benchmarks common to both sides, old vs new, with the ratio.
// Returns "" when no benchmark overlaps.
func geomeanLine(baseline, fresh map[string]benchResult) string {
	var logOld, logNew float64
	n := 0
	for name, base := range baseline {
		got, ok := fresh[name]
		if !ok || base.NsPerOp <= 0 || got.NsPerOp <= 0 {
			continue
		}
		logOld += math.Log(base.NsPerOp)
		logNew += math.Log(got.NsPerOp)
		n++
	}
	if n == 0 {
		return ""
	}
	gOld := math.Exp(logOld / float64(n))
	gNew := math.Exp(logNew / float64(n))
	return fmt.Sprintf("geomean ns/op: %.0f old -> %.0f new (%+.1f%%) over %d common benchmark(s)",
		gOld, gNew, (gNew/gOld-1)*100, n)
}

func main() {
	baselinePath := flag.String("baseline", "", "baseline JSON file (scripts/bench.sh output)")
	freshPath := flag.String("fresh", "", "fresh results: bench.sh JSON or raw `go test -bench` output")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional ns/op growth before failing")
	requireAll := flag.Bool("require-all", false, "fail when a baseline benchmark is missing from the fresh run")
	quiet := flag.Bool("quiet", false, "print only failures and warnings")
	allowCross := flag.Bool("allow-cross-machine", false,
		"compare despite a go version/GOMAXPROCS/platform mismatch with the baseline's meta stamp")
	flag.Parse()
	if *baselinePath == "" || *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -fresh are required")
		flag.Usage()
		os.Exit(2)
	}
	baseline, baseMeta, err := parseFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fresh, freshMeta, err := parseFile(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if why := machineMismatch(baseMeta, freshMeta); why != "" {
		if !*allowCross {
			fmt.Fprintf(os.Stderr, "benchdiff: refusing cross-machine comparison (%s); re-record the baseline with scripts/bench.sh or pass -allow-cross-machine\n", why)
			os.Exit(2)
		}
		fmt.Printf("WARN    cross-machine comparison (%s); ns/op deltas are not meaningful\n", why)
	}
	lines := compare(baseline, fresh, *tolerance, *requireAll)
	failed := 0
	for _, l := range lines {
		if l.fail {
			failed++
		}
		if l.fail || !*quiet || !strings.HasPrefix(l.text, "ok") {
			fmt.Println(l.text)
		}
	}
	if g := geomeanLine(baseline, fresh); g != "" {
		fmt.Println(g)
	}
	if failed > 0 {
		fmt.Printf("benchdiff: %d regression(s) beyond tolerance %.0f%%\n", failed, *tolerance*100)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d benchmark(s) within tolerance %.0f%%\n", len(lines), *tolerance*100)
}
