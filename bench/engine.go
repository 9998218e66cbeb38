package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/scenario"
)

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	sizes   sizes
	// out is where a traced run writes its span file ("" writes none).
	out string
	// golden, when set, is the expected unit-digest listing of the
	// workload; every unit whose digest differs counts as failed.
	golden string
	log    io.Writer
}

// report is the outcome of one run.
type report struct {
	Attempted, Failed int
	// Units is the per-unit digest listing (the golden file format) and
	// Digest its SHA-256: the fingerprint of the workload's inputs and
	// outputs.
	Units   string
	Digest  string
	Metrics metricSet
}

// unitRef addresses one (scenario, replication) unit in RunBatch order.
type unitRef struct{ si, rep int }

func unitsOf(specs []scenario.Scenario) (units []unitRef, offset []int) {
	offset = make([]int, len(specs))
	for si := range specs {
		offset[si] = len(units)
		for rep := 0; rep < specs[si].NumReps(); rep++ {
			units = append(units, unitRef{si, rep})
		}
	}
	return units, offset
}

func digestOf(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// unitDigests fingerprints each unit's RepResult; units a failed batch
// did not complete get "".
func unitDigests(res []*scenario.Result, units []unitRef) []string {
	out := make([]string, len(units))
	for u, ref := range units {
		if ref.si < len(res) && ref.rep < len(res[ref.si].Reps) {
			out[u] = digestOf(res[ref.si].Reps[ref.rep])
		}
	}
	return out
}

// listing renders unit digests in the golden file format.
func listing(digests, labels []string) string {
	var b strings.Builder
	for i, d := range digests {
		fmt.Fprintf(&b, "%s  %s\n", d, labels[i])
	}
	return b.String()
}

// checkGolden counts the units whose listing line differs from the
// golden one; a listing of another length fails every unit.
func checkGolden(got, want string) int {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(g) != len(w) {
		return len(g) - 1
	}
	bad := 0
	for i := range g {
		if g[i] != w[i] {
			bad++
		}
	}
	return bad
}

// mismatches counts units whose digest is missing or differs from ref.
func mismatches(got, ref []string) int {
	bad := 0
	for u := range got {
		if got[u] == "" || got[u] != ref[u] {
			bad++
		}
	}
	return bad
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// setupTimes repeats a set-up, returns the last one's state, and
// records every duration. Each earlier state is released and collected
// before the next set-up starts, so at most one is resident.
func setupTimes[T any](setup func() (T, error), release func(T)) (T, []float64, error) {
	var st, zero T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			release(st)
			st = zero
		}
		runtime.GC()
		t := time.Now()
		s, err := setup()
		times = append(times, since(t))
		if err != nil {
			return zero, times, err
		}
		st = s
	}
	return st, times, nil
}

func runEngine(ctx context.Context, w workload, cfg runConfig) (*report, error) {
	rep := &report{Metrics: metricSet{}}
	m := rep.Metrics
	specs := w.scenarios(cfg.seed, cfg.sizes)
	units, offset := unitsOf(specs)
	labels := make([]string, len(units))
	for u, ref := range units {
		labels[u] = fmt.Sprintf("%s/%d", specs[ref.si].Name, ref.rep)
	}

	// Set-up: build the inputs, construct the engine, run the warm-up
	// pass. On the warm workloads this generates every topology.
	var ref []string
	eng, setupS, err := setupTimes(func() (*scenario.Engine, error) {
		specs := w.scenarios(cfg.seed, cfg.sizes)
		eng := scenario.NewEngine(nil)
		res, err := eng.RunBatch(ctx, specs, scenario.Options{Workers: engineWorkers})
		rep.Attempted += len(units)
		d := unitDigests(res, units)
		if ref == nil {
			ref = d
		}
		rep.Failed += mismatches(d, ref)
		return eng, err
	}, func(*scenario.Engine) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	m["setup_s"] = median(setupS)
	rep.Units = listing(ref, labels)
	rep.Digest = digestOf(rep.Units)
	if cfg.golden != "" {
		rep.Failed += checkGolden(rep.Units, cfg.golden)
	}

	// Measured passes.
	var passS, allocMB, gcCycles, rssMB []float64
	var unitMS [][]float64
	var cache scenario.CacheStats
	before := eng.CacheStats()
	start := time.Now()
	for p := 0; p < minPasses || since(start) < cfg.seconds; p++ {
		if w.cold {
			eng = scenario.NewEngine(nil)
			before = eng.CacheStats()
		}
		done := make([]float64, len(units))
		runtime.GC()
		resetPeakRSS()
		r0 := readRuntime()
		t := time.Now()
		res, err := eng.RunBatch(ctx, specs, scenario.Options{
			Workers:  engineWorkers,
			Progress: func(si, rep int, _ scenario.RepResult) { done[offset[si]+rep] = since(t) * 1e3 },
		})
		passS = append(passS, since(t))
		a, g := readRuntime().since(r0)
		allocMB, gcCycles, rssMB = append(allocMB, a), append(gcCycles, g), append(rssMB, peakRSSMB())
		unitMS = append(unitMS, done)
		rep.Attempted += len(units)
		rep.Failed += mismatches(unitDigests(res, units), ref)
		if err != nil {
			fmt.Fprintf(cfg.log, "%s: pass %d: %v\n", w.name, p, err)
		}
		addCache(&cache, eng.CacheStats(), before)
		before = eng.CacheStats()
	}
	m["units_per_s"] = float64(len(units)) / median(passS)
	m["unit_ms_p50"] = passPercentile(unitMS, 50)
	m["unit_ms_p90"] = passPercentile(unitMS, 90)
	m["peak_rss_mb"] = median(rssMB)
	m["runtime.alloc_mb"] = median(allocMB)
	m["runtime.gc_cycles"] = median(gcCycles)
	cacheMetrics(m, cache, len(passS), eng.CacheStats().BytesUsed)

	if cfg.trace {
		tr, err := traceEngine(ctx, w, cfg, specs, units, ref, rep)
		if err != nil {
			return nil, err
		}
		if err := tr.finish(m, cfg, w.name, engineWorkers, median(passS)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traceEngine runs the traced decomposition: on a warm workload a traced
// set-up generates every topology first, then one traced pass runs every
// unit. Each unit's output must equal the untraced run's.
func traceEngine(ctx context.Context, w workload, cfg runConfig, specs []scenario.Scenario, units []unitRef, ref []string, rep *report) (*tracedRun, error) {
	runtime.GC()
	d := newDecomposer()
	setup := -1
	if !w.cold {
		setup = d.tr.begin("bench.setup", -1, -1)
		err := d.pregenerate(ctx, specs, units, setup)
		d.tr.end(setup)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
	}
	pass := d.tr.begin("bench.pass", -1, -1)
	out, errs := d.pass(ctx, specs, units, pass)
	d.tr.end(pass)
	rep.Attempted += len(units)
	for u := range units {
		switch {
		case errs[u] != nil:
			fmt.Fprintf(cfg.log, "%s: traced unit %d: %v\n", w.name, u, errs[u])
			rep.Failed++
		case digestOf(out[u]) != ref[u]:
			fmt.Fprintf(cfg.log, "%s: traced unit %d (%s/%d) differs from the engine's result\n",
				w.name, u, specs[units[u].si].Name, units[u].rep)
			rep.Failed++
		}
	}
	return &tracedRun{spans: d.tr.spans, setup: setup, pass: pass, counts: d.counts,
		nodesGrown: d.nodesGrown, csrBytes: d.csrBytes}, nil
}

// addCache accumulates the counter growth from before to now into acc.
func addCache(acc *scenario.CacheStats, now, before scenario.CacheStats) {
	acc.Hits += now.Hits - before.Hits
	acc.Coalesced += now.Coalesced - before.Coalesced
	acc.Misses += now.Misses - before.Misses
	acc.Evictions += now.Evictions - before.Evictions
}

// cacheMetrics reports snapshot-cache outcomes per measured pass.
func cacheMetrics(m metricSet, c scenario.CacheStats, passes int, bytesUsed int64) {
	if lookups := c.Hits + c.Coalesced + c.Misses; lookups > 0 {
		m["scenario.cache_hit_ratio"] = float64(c.Hits+c.Coalesced) / float64(lookups)
	}
	m["scenario.cache_misses"] = float64(c.Misses) / float64(passes)
	m["scenario.cache_evictions"] = float64(c.Evictions) / float64(passes)
	m["scenario.snapshot_mb"] = float64(bytesUsed) / (1 << 20)
}
