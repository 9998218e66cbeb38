package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// loadResults reads a results file, or every results file in a
// directory (trace span files there are skipped).
func loadResults(path string) ([]results, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "results-*.json")); err != nil {
			return nil, err
		}
	}
	var out []results
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r results
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if len(r.Workloads) > 0 {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// values collects one metric of one workload across runs of one mode.
func values(rs []results, workload, metric string, trace int) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Meta.Trace != trace {
			continue
		}
		for _, w := range r.Workloads {
			if v, ok := w.Metrics[metric]; ok && w.Name == workload {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// failShare is failed over attempted units of a workload across runs.
func failShare(rs []results, workload string) (failed, attempted int) {
	for _, r := range rs {
		for _, w := range r.Workloads {
			if w.Name == workload {
				failed += w.Failed
				attempted += w.Attempted
			}
		}
	}
	return failed, attempted
}

// verdict judges B against A on one metric. Improved needs B to win
// nine tenths of all pairs and the medians to differ by more than A's
// quartile spread, so noise alone rarely reads as a gain;
// a spread wider than the bound is unresolved unless every B run beats
// every A run; otherwise B is worse when its median is worse than A's by
// more than the bound.
func verdict(a, b []float64, d metricDef) (string, float64) {
	better := func(x, y float64) bool { // x reads better than y
		if d.better == "higher" {
			return x > y
		}
		return x < y
	}
	wins, all := 0, true
	for _, x := range a {
		for _, y := range b {
			if better(y, x) {
				wins++
			} else {
				all = false
			}
		}
	}
	share := float64(wins) / float64(len(a)*len(b))
	ma, mb := median(a), median(b)
	qa1, qa3 := quartiles(a)
	qb1, qb3 := quartiles(b)
	spread := max(relSpread(qa1, qa3, ma), relSpread(qb1, qb3, mb))
	worse := (mb - ma) / math.Abs(ma)
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case share >= 0.9 && math.Abs(mb-ma) > qa3-qa1 && worse < 0:
		return "improved", share
	case spread > d.bound && !all:
		return "unresolved", share
	case worse > d.bound:
		return "worse", share
	}
	return "unchanged", share
}

func relSpread(q1, q3, med float64) float64 {
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// compareMain prints, per workload and end-to-end metric, each side's
// median and quartiles, B's pairwise win share and the verdict; then
// each side's failed-unit share and, from traced runs, whether every
// exact count repeats. It returns 1 when anything got worse.
func compareMain(w io.Writer, pathA, pathB string) (int, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "A: %s (%d runs, %s)\nB: %s (%d runs, %s)\n", pathA, len(a), stamp(a[0].Meta), pathB, len(b), stamp(b[0].Meta))
	if stamp(a[0].Meta) != stamp(b[0].Meta) {
		fmt.Fprintln(w, "warning: the two sides ran on differently stamped machines")
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-12s %-28s %-28s %6s %6s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "B wins", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, wl.name, d.name, 0), values(b, wl.name, d.name, 0)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, share := verdict(va, vb, d)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-12s %-28s %-28s %5.0f%% %5.0f%%  %s\n",
				wl.name, d.name, summary(va), summary(vb), 100*share, 100*d.bound, v)
		}
	}
	for _, wl := range workloads {
		fa, aa := failShare(a, wl.name)
		fb, ab := failShare(b, wl.name)
		if aa == 0 || ab == 0 {
			continue
		}
		note := ""
		if fb > 0 || fa > 0 {
			note = "  FAILED UNITS"
			code = 1
		}
		fmt.Fprintf(w, "%-14s fail_frac A %d/%d  B %d/%d%s\n", wl.name, fa, aa, fb, ab, note)
	}
	for _, wl := range workloads {
		var diff []string
		checked := 0
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			vs := append(values(a, wl.name, d.name, 1), values(b, wl.name, d.name, 1)...)
			if len(vs) < 2 {
				continue
			}
			checked++
			for _, v := range vs[1:] {
				if v != vs[0] {
					diff = append(diff, d.name)
					break
				}
			}
		}
		switch {
		case checked == 0:
		case len(diff) > 0:
			code = 1
			fmt.Fprintf(w, "%-14s exact counts DIFFER: %s\n", wl.name, strings.Join(diff, ", "))
		default:
			fmt.Fprintf(w, "%-14s exact counts identical (%d metrics)\n", wl.name, checked)
		}
	}
	return code, nil
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", median(xs), q1, q3)
}

func stamp(m meta) string {
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d", m.Go, m.GOMAXPROCS, m.NProc)
}
