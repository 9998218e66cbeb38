package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fp(v float64) *float64 { return &v }

func failures(lines []diffLine) []string {
	var out []string
	for _, l := range lines {
		if l.fail {
			out = append(out, l.text)
		}
	}
	return out
}

func TestCompareGates(t *testing.T) {
	baseline := map[string]benchResult{
		"BenchmarkFast":  {Name: "BenchmarkFast", NsPerOp: 1000, AllocsOp: fp(0)},
		"BenchmarkSlow":  {Name: "BenchmarkSlow", NsPerOp: 1000},
		"BenchmarkGone":  {Name: "BenchmarkGone", NsPerOp: 500},
		"BenchmarkAlloc": {Name: "BenchmarkAlloc", NsPerOp: 1000, AllocsOp: fp(3)},
	}
	fresh := map[string]benchResult{
		"BenchmarkFast":  {Name: "BenchmarkFast", NsPerOp: 1100, AllocsOp: fp(0)}, // +10%: ok
		"BenchmarkSlow":  {Name: "BenchmarkSlow", NsPerOp: 1300},                  // +30%: fail at 25%
		"BenchmarkAlloc": {Name: "BenchmarkAlloc", NsPerOp: 900, AllocsOp: fp(5)}, // alloc growth, not 0-gated
		"BenchmarkNew":   {Name: "BenchmarkNew", NsPerOp: 10},
	}
	fails := failures(compare(baseline, fresh, 0.25, false))
	if len(fails) != 1 || !strings.Contains(fails[0], "BenchmarkSlow") {
		t.Fatalf("want exactly the ns/op regression, got %q", fails)
	}

	// The allocation-free gate is exact: one alloc fails even when faster.
	fresh["BenchmarkFast"] = benchResult{Name: "BenchmarkFast", NsPerOp: 500, AllocsOp: fp(1)}
	fails = failures(compare(baseline, fresh, 0.25, false))
	if len(fails) != 2 {
		t.Fatalf("want alloc + ns regressions, got %q", fails)
	}
	found := false
	for _, f := range fails {
		if strings.Contains(f, "BenchmarkFast") && strings.Contains(f, "allocation-free") {
			found = true
		}
	}
	if !found {
		t.Fatalf("allocation-free gate did not fire: %q", fails)
	}

	// Missing benchmarks warn by default, fail under -require-all.
	if fails := failures(compare(baseline, fresh, 10, false)); len(fails) != 1 {
		t.Fatalf("missing bench failed without -require-all: %q", fails)
	}
	fails = failures(compare(baseline, fresh, 10, true))
	hasMissing := false
	for _, f := range fails {
		if strings.Contains(f, "BenchmarkGone") {
			hasMissing = true
		}
	}
	if !hasMissing {
		t.Fatalf("-require-all did not gate the missing bench: %q", fails)
	}
}

func TestCompareToleranceBoundary(t *testing.T) {
	baseline := map[string]benchResult{"BenchmarkX": {Name: "BenchmarkX", NsPerOp: 1000}}
	at := map[string]benchResult{"BenchmarkX": {Name: "BenchmarkX", NsPerOp: 1250}}
	if fails := failures(compare(baseline, at, 0.25, false)); len(fails) != 0 {
		t.Fatalf("exactly-at-limit failed: %q", fails)
	}
	over := map[string]benchResult{"BenchmarkX": {Name: "BenchmarkX", NsPerOp: 1251}}
	if fails := failures(compare(baseline, over, 0.25, false)); len(fails) != 1 {
		t.Fatalf("over-limit passed: %q", fails)
	}
}

func TestParseBenchText(t *testing.T) {
	raw := `goos: linux
goarch: amd64
pkg: repro
BenchmarkBFSCSRPooled-8     	    1221	    983124 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMem-8            	     100	     12345 ns/op
BenchmarkOdd not a bench line
PASS
ok  	repro	2.153s
`
	got, err := parseBenchText([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got["BenchmarkBFSCSRPooled"]
	if !ok {
		t.Fatalf("pooled bench not parsed (suffix not stripped?): %v", got)
	}
	if r.NsPerOp != 983124 || r.AllocsOp == nil || *r.AllocsOp != 0 {
		t.Fatalf("parsed %+v", r)
	}
	if r2 := got["BenchmarkNoMem"]; r2.NsPerOp != 12345 || r2.AllocsOp != nil {
		t.Fatalf("parsed %+v", r2)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d entries, want 2", len(got))
	}
}

func TestParseKeepsWorstOfCPUDuplicates(t *testing.T) {
	// A `go test -cpu 1,4` run emits one line per GOMAXPROCS value; both
	// normalize to the same name and the gate must keep the worst of the
	// set so a single-thread regression can't hide behind a parallel win.
	raw := `BenchmarkPar-1  10  2000 ns/op  0 B/op  0 allocs/op
BenchmarkPar-4  40   500 ns/op  64 B/op  2 allocs/op
`
	got, err := parseBenchText([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("parsed %d entries, want 1 merged: %v", len(got), got)
	}
	r := got["BenchmarkPar"]
	if r.NsPerOp != 2000 || r.Iteration != 10 {
		t.Fatalf("kept ns/op %v (iters %d), want the slower leg 2000 (10)", r.NsPerOp, r.Iteration)
	}
	if r.AllocsOp == nil || *r.AllocsOp != 2 || r.BytesOp == nil || *r.BytesOp != 64 {
		t.Fatalf("kept allocs %v bytes %v, want max of legs (2, 64)", r.AllocsOp, r.BytesOp)
	}

	// Same merge on the JSON path, and nil alloc fields survive a merge
	// with a measured leg.
	out := map[string]benchResult{}
	keep(out, benchResult{Name: "BenchmarkJ-4", NsPerOp: 100, AllocsOp: fp(1)})
	keep(out, benchResult{Name: "BenchmarkJ-1", NsPerOp: 300})
	j := out["BenchmarkJ"]
	if j.NsPerOp != 300 || j.AllocsOp == nil || *j.AllocsOp != 1 {
		t.Fatalf("json merge kept %+v, want ns 300 allocs 1", j)
	}
}

func TestParseFileJSONAndText(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "base.json")
	if err := os.WriteFile(jsonPath, []byte(`[
  {"name": "BenchmarkA-8", "iterations": 10, "ns_per_op": 100.5, "allocs_per_op": 0}
]`), 0o644); err != nil {
		t.Fatal(err)
	}
	base, baseMeta, err := parseFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if baseMeta != nil {
		t.Fatalf("legacy array baseline produced a meta stamp: %+v", baseMeta)
	}
	if r, ok := base["BenchmarkA"]; !ok || r.NsPerOp != 100.5 || *r.AllocsOp != 0 {
		t.Fatalf("json parse: %+v", base)
	}

	txtPath := filepath.Join(dir, "fresh.txt")
	if err := os.WriteFile(txtPath, []byte("BenchmarkA-4  20  99 ns/op  0 B/op  0 allocs/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, freshMeta, err := parseFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	if freshMeta != nil {
		t.Fatalf("raw text produced a meta stamp: %+v", freshMeta)
	}
	if fails := failures(compare(base, fresh, 0.25, true)); len(fails) != 0 {
		t.Fatalf("cross-format compare failed: %q", fails)
	}
}

func TestParseFileObjectFormWithMeta(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	if err := os.WriteFile(path, []byte(`{
  "meta": {"commit": "abc123", "go_version": "go1.24.0", "gomaxprocs": 4, "goos": "linux", "goarch": "amd64", "date": "2026-08-07"},
  "benchmarks": [
    {"name": "BenchmarkA-4", "iterations": 10, "ns_per_op": 100, "allocs_per_op": 0}
  ]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, meta, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil || meta.Commit != "abc123" || meta.GoVersion != "go1.24.0" || meta.GoMaxProcs != 4 {
		t.Fatalf("meta = %+v", meta)
	}
	if r, ok := got["BenchmarkA"]; !ok || r.NsPerOp != 100 {
		t.Fatalf("benchmarks = %+v", got)
	}
}

func TestMachineMismatch(t *testing.T) {
	a := &benchMeta{GoVersion: "go1.24.0", GoMaxProcs: 4, GOOS: "linux", GOARCH: "amd64"}
	same := &benchMeta{GoVersion: "go1.24.0", GoMaxProcs: 4, GOOS: "linux", GOARCH: "amd64"}
	if why := machineMismatch(a, same); why != "" {
		t.Fatalf("matching stamps flagged: %q", why)
	}
	if why := machineMismatch(nil, same); why != "" {
		t.Fatalf("nil baseline meta flagged: %q", why)
	}
	diffGo := &benchMeta{GoVersion: "go1.23.1", GoMaxProcs: 4, GOOS: "linux", GOARCH: "amd64"}
	if why := machineMismatch(a, diffGo); !strings.Contains(why, "go version") {
		t.Fatalf("go version mismatch not flagged: %q", why)
	}
	diffProcs := &benchMeta{GoVersion: "go1.24.0", GoMaxProcs: 16, GOOS: "linux", GOARCH: "amd64"}
	if why := machineMismatch(a, diffProcs); !strings.Contains(why, "GOMAXPROCS") {
		t.Fatalf("GOMAXPROCS mismatch not flagged: %q", why)
	}
	// Empty fields are treated as unknown, not as a mismatch.
	sparse := &benchMeta{GoMaxProcs: 4}
	if why := machineMismatch(a, sparse); why != "" {
		t.Fatalf("unknown fields flagged: %q", why)
	}
}

func TestGeomeanLine(t *testing.T) {
	baseline := map[string]benchResult{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 100},
		"BenchmarkB": {Name: "BenchmarkB", NsPerOp: 400},
		"BenchmarkC": {Name: "BenchmarkC", NsPerOp: 50}, // not in fresh: excluded
	}
	fresh := map[string]benchResult{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 200},
		"BenchmarkB": {Name: "BenchmarkB", NsPerOp: 800},
	}
	line := geomeanLine(baseline, fresh)
	// geomean(100,400)=200, geomean(200,800)=400: exactly +100%.
	if !strings.Contains(line, "200 old -> 400 new") || !strings.Contains(line, "+100.0%") ||
		!strings.Contains(line, "2 common") {
		t.Fatalf("geomean line = %q", line)
	}
	if line := geomeanLine(baseline, map[string]benchResult{}); line != "" {
		t.Fatalf("no-overlap geomean = %q", line)
	}
}

func TestParseCounters(t *testing.T) {
	raw := `BenchmarkRoute-1   20   5000 ns/op   0 B/op   0 allocs/op   4500 scanned/op
BenchmarkRoute-2   40   3000 ns/op   0 B/op   0 allocs/op   4600 scanned/op
BenchmarkBFS-2     10   9000 ns/op   12.50 bu-levels/op   80.0 MB/s
BenchmarkPlain-2   10   100 ns/op
`
	got, err := parseBenchText([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if c := got["BenchmarkRoute"].Counters; len(c) != 1 || c["scanned/op"] != 4600 {
		t.Fatalf("route counters %v, want the larger leg's scanned/op 4600", c)
	}
	if c := got["BenchmarkBFS"].Counters; len(c) != 1 || c["bu-levels/op"] != 12.5 {
		t.Fatalf("bfs counters %v, want bu-levels/op 12.5 and no MB/s", c)
	}
	if c := got["BenchmarkPlain"].Counters; c != nil {
		t.Fatalf("plain bench has counters %v", c)
	}

	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte(`{
  "meta": {"gomaxprocs": 2},
  "benchmarks": [
    {"name": "BenchmarkTimeline/epoch", "iterations": 5, "ns_per_op": 100, "counters": {"dsu-ops/op": 153944}},
    {"name": "BenchmarkTimeline/epoch-2", "iterations": 5, "ns_per_op": 90, "counters": {"dsu-ops/op": 153944}}
  ]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base, _, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if c := base["BenchmarkTimeline/epoch"].Counters; c["dsu-ops/op"] != 153944 {
		t.Fatalf("json counters %v", c)
	}
}

func TestCompareCounterGate(t *testing.T) {
	counters := func(kv ...float64) map[string]float64 {
		return map[string]float64{"scanned/op": kv[0], "bu-levels/op": kv[1]}
	}
	baseline := map[string]benchResult{
		"BenchmarkK": {Name: "BenchmarkK", NsPerOp: 1000, Counters: counters(5000, 3)},
	}
	cases := []struct {
		name     string
		counters map[string]float64
		fails    []string
	}{
		{"equal", counters(5000, 3), nil},
		{"fewer", counters(4000, 2), nil},
		{"one more row", counters(5001, 3), []string{"scanned/op 5001 exceeds baseline 5000"}},
		{"both up", counters(5001, 4), []string{"bu-levels/op 4", "scanned/op 5001"}},
		{"not reported", nil, nil},
	}
	for _, tc := range cases {
		// ns/op within tolerance: only the counter gate can fail.
		fresh := map[string]benchResult{"BenchmarkK": {Name: "BenchmarkK", NsPerOp: 900, Counters: tc.counters}}
		fails := failures(compare(baseline, fresh, 0.25, false))
		if len(fails) != len(tc.fails) {
			t.Fatalf("%s: failures %q, want %d", tc.name, fails, len(tc.fails))
		}
		for i, want := range tc.fails {
			if !strings.Contains(fails[i], want) || !strings.Contains(fails[i], "work counter regressed") {
				t.Fatalf("%s: failure %q, want it to name %q", tc.name, fails[i], want)
			}
		}
	}
}

// TestCompareWarnsOnUngatedCounters: a counter the fresh run reports for
// a baseline benchmark that the baseline lacks cannot be gated, so it
// warns once per benchmark and unit without failing; counters of a new
// benchmark are covered by its NEW line.
func TestCompareWarnsOnUngatedCounters(t *testing.T) {
	baseline := map[string]benchResult{
		"BenchmarkGrow": {Name: "BenchmarkGrow", NsPerOp: 1000, Counters: map[string]float64{"evals/op": 500}},
		"BenchmarkFit":  {Name: "BenchmarkFit", NsPerOp: 1000},
	}
	fresh := map[string]benchResult{
		"BenchmarkGrow": {Name: "BenchmarkGrow", NsPerOp: 1000,
			Counters: map[string]float64{"evals/op": 500, "cells/op": 900, "blocks/op": 30}},
		"BenchmarkFit": {Name: "BenchmarkFit", NsPerOp: 1000, Counters: map[string]float64{"ks-terms/op": 7}},
		"BenchmarkNew": {Name: "BenchmarkNew", NsPerOp: 10, Counters: map[string]float64{"cells/op": 1}},
	}
	lines := compare(baseline, fresh, 0.25, true)
	if fails := failures(lines); len(fails) != 0 {
		t.Fatalf("ungated counters failed the gate: %q", fails)
	}
	var warns []string
	for _, l := range lines {
		if strings.HasPrefix(l.text, "WARN") {
			warns = append(warns, l.text)
		}
	}
	want := []string{
		"WARN    BenchmarkFit: ks-terms/op 7 is not in the baseline",
		"WARN    BenchmarkGrow: blocks/op 30 is not in the baseline",
		"WARN    BenchmarkGrow: cells/op 900 is not in the baseline",
	}
	if len(warns) != len(want) {
		t.Fatalf("warnings %q, want %d", warns, len(want))
	}
	for i := range want {
		if !strings.HasPrefix(warns[i], want[i]) {
			t.Fatalf("warning %d = %q, want prefix %q", i, warns[i], want[i])
		}
	}
}

// TestCompareSkippedVsMissing holds -require-all to a -v fresh run: a
// baseline benchmark the run skipped is reported as skipped and passes,
// one the run never mentions fails.
func TestCompareSkippedVsMissing(t *testing.T) {
	raw := `BenchmarkKept
BenchmarkKept-2   	      20	       900 ns/op
BenchmarkScaleX
    bench_scale_test.go:60: scale tier skipped in -short mode
--- SKIP: BenchmarkScaleX
`
	fresh, err := parseBenchText([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if r := fresh["BenchmarkScaleX"]; !r.Skipped || fresh["BenchmarkKept"].Skipped || len(fresh) != 2 {
		t.Fatalf("parsed %+v, want BenchmarkKept measured and BenchmarkScaleX skipped", fresh)
	}
	baseline := map[string]benchResult{
		"BenchmarkKept":   {Name: "BenchmarkKept", NsPerOp: 1000},
		"BenchmarkScaleX": {Name: "BenchmarkScaleX", NsPerOp: 1000},
		"BenchmarkGone":   {Name: "BenchmarkGone", NsPerOp: 1000},
	}
	lines := compare(baseline, fresh, 0.25, true)
	if fails := failures(lines); len(fails) != 1 || !strings.HasPrefix(fails[0], "MISSING BenchmarkGone") {
		t.Fatalf("want only the vanished benchmark to fail, got %q", fails)
	}
	skipped := false
	for _, l := range lines {
		if strings.HasPrefix(l.text, "SKIP    BenchmarkScaleX") {
			skipped = true
		}
	}
	if !skipped {
		t.Fatalf("skipped baseline row not reported as skipped: %+v", lines)
	}
	delete(baseline, "BenchmarkGone")
	if fails := failures(compare(baseline, fresh, 0.25, true)); len(fails) != 0 {
		t.Fatalf("a skipped baseline row failed -require-all: %q", fails)
	}
}
