package scenario

import (
	"context"
	"fmt"
	"math"

	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/robust"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/trafficreg"
)

// Options tune an Engine batch run.
type Options struct {
	// Workers bounds the goroutines fanning (scenario, replication)
	// units out (<= 0 means GOMAXPROCS). All reductions happen in unit
	// order, so output is byte-identical for any value.
	Workers int
	// Progress, when non-nil, is called once per completed (scenario,
	// replication) unit with a copy of its result. Units complete in
	// scheduling order, not unit order, and calls may arrive from
	// several worker goroutines concurrently — the callback must be
	// safe for concurrent use. The scenario index refers to the slice
	// passed to RunBatch. The scenario service uses this to stream
	// incremental per-rep results while a job runs.
	Progress func(scenario, rep int, rr RepResult)
}

// Engine executes scenarios over a registry on the CSR kernel. It
// caches frozen snapshots keyed by topology identity (model + resolved
// params + seed) in a byte-budgeted LRU (see CacheStats), so scenarios
// that measure, route and attack the same topology generate and freeze
// it once — including across concurrent batches: the cache has
// singleflight semantics, so any number of concurrent callers of one
// identity amortize a single generation. The zero value is not usable;
// call NewEngine. An Engine is safe for concurrent use and is designed
// to be shared — the scenario service hosts one Engine for all jobs.
type Engine struct {
	reg   *Registry
	cache *snapCache
}

// NewEngine returns an engine over the given registry (nil means
// Default()) with the default snapshot-cache budget
// (DefaultCacheBudget).
func NewEngine(reg *Registry) *Engine {
	if reg == nil {
		reg = Default()
	}
	return &Engine{reg: reg, cache: newSnapCache(DefaultCacheBudget)}
}

// Registry returns the registry this engine resolves models in.
func (e *Engine) Registry() *Registry { return e.reg }

// SetCacheBudget bounds the snapshot cache's estimated resident
// footprint in bytes (Graph + CSR, via their MemBytes estimators),
// evicting immediately if the new budget is tighter than what is
// resident. A budget <= 0 disables retention entirely while keeping the
// singleflight generation sharing.
func (e *Engine) SetCacheBudget(bytes int64) { e.cache.setBudget(bytes) }

// CacheStats returns a point-in-time snapshot of the cache counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// snapshot returns the generated topology and its frozen CSR for one
// (generate-spec, seed) identity, generating at most once per identity
// even under concurrent replications. Failed generations (including
// cancellations) are never retained, so a later run with a live context
// retries. A generator that panics fails its generation like one that
// returns an error: the leader finishes the entry on every path, so
// coalesced waiters wake with the same error instead of blocking.
func (e *Engine) snapshot(ctx context.Context, gen Generator, resolved Params, seed int64) (*graph.Graph, *graph.CSR, error) {
	key := identityKey(gen.Name(), resolved, seed)
	ent, leader := e.cache.lookup(key)
	if leader {
		func() {
			defer func() {
				if r := recover(); r != nil {
					ent.err = fmt.Errorf("scenario: model %q panicked: %v", gen.Name(), r)
				}
				e.cache.finish(ent)
			}()
			p := resolved.Clone()
			p["seed"] = float64(seed)
			g, err := gen.Generate(ctx, p)
			if err != nil {
				ent.err = err
				return
			}
			ent.g, ent.c = g, g.Freeze()
		}()
		return ent.g, ent.c, ent.err
	}
	select {
	case <-ent.ready:
		return ent.g, ent.c, ent.err
	case <-ctx.Done():
		return nil, nil, fmt.Errorf("scenario: waiting for topology: %w", errs.Ctx(ctx))
	}
}

// Run executes one scenario with the given worker bound applied to its
// replications. Like RunBatch, a started-then-failed run returns its
// Partial result alongside the error — the single-scenario surface
// keeps the completed replication prefix instead of dropping it.
func (e *Engine) Run(ctx context.Context, sc Scenario, opt Options) (*Result, error) {
	out, err := e.RunBatch(ctx, []Scenario{sc}, opt)
	if err != nil {
		if len(out) == 1 {
			return out[0], err
		}
		return nil, err
	}
	return out[0], nil
}

// RunBatch executes scenarios concurrently: every (scenario,
// replication) unit fans out across the worker pool and results are
// reduced in unit order, so the returned slice — and each Result's
// Format output — is byte-identical for any Options.Workers. The
// context is checked before each unit and inside every stage; the first
// (lowest-unit) error aborts the batch, with cancellation surfacing as
// an errs.ErrCanceled-wrapping error.
//
// When a started batch fails (cancellation included), the returned
// slice still carries the partial output alongside the error: each
// Result is marked Partial and its Reps trimmed to the contiguous
// prefix of replications that completed, so a cut-short run is
// distinguishable from a complete one. Errors before any unit runs
// (spec validation, a replication total over MaxBatchReps) return a
// nil slice.
func (e *Engine) RunBatch(ctx context.Context, scs []Scenario, opt Options) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, err := BatchReps(scs); err != nil {
		return nil, err
	}
	type unitRef struct {
		si, rep int
	}
	var units []unitRef
	results := make([]*Result, len(scs))
	resolved := make([]Params, len(scs))
	gens := make([]Generator, len(scs))
	for si := range scs {
		sc := &scs[si]
		g, p, err := sc.prepare(e.reg)
		if err != nil {
			return nil, err
		}
		gens[si], resolved[si] = g, p
		results[si] = &Result{Scenario: scs[si], Reps: make([]RepResult, sc.NumReps())}
		for rep := 0; rep < sc.NumReps(); rep++ {
			units = append(units, unitRef{si, rep})
		}
	}
	// done is written by at most one worker per index and read only
	// after the fan-out fully returns.
	done := make([]bool, len(units))
	err := par.ForEachErr(opt.Workers, len(units), func(u int) error {
		if err := errs.Ctx(ctx); err != nil {
			return fmt.Errorf("scenario: unit %d: %w", u, err)
		}
		ref := units[u]
		rr, err := e.runRep(ctx, &scs[ref.si], gens[ref.si], resolved[ref.si], ref.rep)
		if err != nil {
			return fmt.Errorf("scenario %s rep %d: %w", scs[ref.si].describe(), ref.rep, err)
		}
		results[ref.si].Reps[ref.rep] = rr
		done[u] = true
		if opt.Progress != nil {
			opt.Progress(ref.si, ref.rep, rr)
		}
		return nil
	})
	if err != nil {
		// Units were appended per scenario, so scenario si owns the
		// contiguous block of NumReps() units starting at its offset.
		u := 0
		for si := range results {
			reps := len(results[si].Reps)
			k := 0
			for k < reps && done[u+k] {
				k++
			}
			results[si].Reps = results[si].Reps[:k]
			results[si].Partial = true
			u += reps
		}
		return results, err
	}
	return results, nil
}

// runRep executes one replication: generate (or hit the snapshot
// cache), then the enabled measure/route/attack stages, all on the
// shared frozen CSR.
func (e *Engine) runRep(ctx context.Context, sc *Scenario, gen Generator, resolved Params, rep int) (RepResult, error) {
	seed := sc.SeedFor(rep)
	g, c, err := e.snapshot(ctx, gen, resolved, seed)
	if err != nil {
		return RepResult{}, err
	}
	rr := RepResult{Seed: seed, Nodes: g.NumNodes(), Edges: g.NumEdges()}

	if m := sc.Measure; m != nil {
		if m.wantProfile() {
			prof, err := metrics.ProfileContext(ctx, g, c, seed, 1)
			if err != nil {
				return RepResult{}, err
			}
			rr.Profile = &prof
		}
		if m.Degrees {
			if err := errs.Ctx(ctx); err != nil {
				return RepResult{}, err
			}
			ds := stats.AnalyzeDegrees(g)
			rr.Degrees = &DegreeSummary{
				MeanDegree: ds.MeanDegree,
				MaxDegree:  ds.MaxDegree,
				Tail:       ds.Classification.Kind.String(),
			}
		}
		if len(m.Metrics) > 0 {
			vals, err := metricreg.Default().Evaluate(ctx, metricreg.NewSource(g, c), m.Metrics,
				metricreg.Options{Workers: 1, Seed: seed})
			if err != nil {
				return RepResult{}, err
			}
			rr.Metrics = vals
		}
	}

	if rt := sc.Route; rt != nil {
		sum, err := e.route(ctx, g, c, rt, seed)
		if err != nil {
			return RepResult{}, err
		}
		rr.Route = sum
	}

	if ts := sc.Traffic; ts != nil {
		sum, err := e.traffic(ctx, g, c, ts, seed)
		if err != nil {
			return RepResult{}, err
		}
		rr.Traffic = sum
	}

	if at := sc.Attack; at != nil {
		fracs := at.Fracs
		if len(fracs) == 0 {
			fracs = []float64{0.05, 0.1, 0.2}
		}
		trials := at.Trials
		if trials <= 0 {
			trials = 3
		}
		// The registry-driven sweep engine: the plain LCC curve rides the
		// reverse union-find replay.
		curves, err := robust.RunSweepContext(ctx, g, c, robust.SweepSpec{
			Attack:  at.Strategy,
			Params:  at.Params,
			Fracs:   fracs,
			Trials:  trials,
			Workers: 1,
		}, seed)
		if err != nil {
			return RepResult{}, err
		}
		pts := make([]robust.SweepPoint, len(fracs))
		for i, f := range fracs {
			pts[i] = robust.SweepPoint{FracRemoved: f, LCCFrac: curves[0].Values[i]}
		}
		rr.Attack = pts
	}

	if tl := sc.Timeline; tl != nil {
		pts, err := e.timeline(ctx, g, c, sc, tl, seed)
		if err != nil {
			return RepResult{}, err
		}
		rr.Timeline = pts
	}
	return rr, nil
}

// timeline executes the temporal stage for one replication: the
// repeat-unrolled event schedule's connectivity events run through the
// epoch-based engine in one call (mode-selectable for the parity
// tests), and each capacity-set/demand-switch event re-evaluates the
// CapTraffic set with the capacities and demand model current at that
// point. The scenario's Traffic stage, when present, seeds the initial
// demand model, site count, and default capacity; without one the
// defaults match a bare TrafficSpec (gravity, 16 sites, unit capacity).
func (e *Engine) timeline(ctx context.Context, g *graph.Graph, c *graph.CSR, sc *Scenario, tl *TimelineSpec, seed int64) ([]TimelinePoint, error) {
	repeat := tl.Repeat
	if repeat < 1 {
		repeat = 1
	}
	total := len(tl.Events) * repeat
	mode, err := robust.ParseTimelineMode(tl.Mode)
	if err != nil {
		return nil, err
	}
	metricNames := tl.Metrics
	if len(metricNames) == 0 {
		metricNames = []string{"lcc"}
	}

	// One pass splits the expanded schedule: connectivity events feed
	// the robust engine as a single timeline, prefix[i] maps expanded
	// event i to its row in the returned trajectory (row 0 = intact).
	conn := make([]robust.TimelineEvent, 0, total)
	prefix := make([]int, total)
	for i := 0; i < total; i++ {
		ev := &tl.Events[i%len(tl.Events)]
		if op, id, ok := ev.connectivity(); ok {
			conn = append(conn, robust.TimelineEvent{Op: op, ID: id})
		}
		prefix[i] = len(conn)
	}
	curves, err := robust.RunTimelineContext(ctx, c, conn, metricNames, mode, seed)
	if err != nil {
		return nil, err
	}

	// Traffic state, mutated as capacity-set/demand-switch events land.
	sel := trafficreg.Selection{}
	sites, defCap := 16, 1.0
	if ts := sc.Traffic; ts != nil {
		sel = trafficreg.Selection{Name: ts.Model, Params: ts.Params}
		if ts.Sites > 0 {
			sites = ts.Sites
		}
		if ts.Capacity != 0 {
			defCap = ts.Capacity
		}
	}
	trafficG, cloned := g, false

	pts := make([]TimelinePoint, total)
	for i := 0; i < total; i++ {
		ev := &tl.Events[i%len(tl.Events)]
		pt := TimelinePoint{Index: i, Event: ev.Event, Node: ev.Node, Edge: ev.Edge}
		if ev.At != nil {
			t := *ev.At
			pt.Time = &t
		} else if ev.Step != nil {
			t := float64(*ev.Step)
			pt.Time = &t
		}
		pt.Metrics = make(map[string]float64, len(curves))
		for mi := range curves {
			pt.Metrics[curves[mi].Name] = curves[mi].Values[prefix[i]]
		}
		switch ev.Event {
		case "capacity-set":
			eid := *ev.Edge
			if eid >= g.NumEdges() {
				return nil, errs.BadParamf("scenario: timeline event %d: edge %d out of [0,%d)", i, eid, g.NumEdges())
			}
			// The first capacity change clones the shared snapshot's
			// graph; the CSR stays valid (capacities are not frozen into
			// it) so path pinning reuses it.
			if !cloned {
				trafficG, cloned = g.Clone(), true
			}
			trafficG.Edge(eid).Capacity = *ev.Capacity
		case "demand-switch":
			sel = trafficreg.Selection{Name: ev.Model, Params: ev.Params}
		default:
			pts[i] = pt
			continue
		}
		sum, err := trafficSummary(ctx, trafficG, c, sel, sites, defCap, seed)
		if err != nil {
			return nil, err
		}
		pt.Traffic = sum
		pts[i] = pt
	}
	return pts, nil
}

func (e *Engine) route(ctx context.Context, g *graph.Graph, c *graph.CSR, rt *RouteSpec, seed int64) (*RouteSummary, error) {
	demands := randomDemands(g.NumNodes(), rt.Demands, rt.Volume, seed)
	mode := rt.Mode
	if mode == "" {
		mode = "shortest"
	}
	sum := &RouteSummary{Mode: mode}
	switch mode {
	case "shortest":
		res, err := routing.RouteShortestPathsContext(ctx, g, c, demands)
		if err != nil {
			return nil, err
		}
		sum.Delivered, sum.Dropped = res.Delivered, res.Dropped
		sum.MaxUtilization, sum.AvgHops = finite(res.MaxUtilization), res.AvgHops
	case "capacitated":
		res, err := routing.RouteCapacitatedContext(ctx, g, c, demands)
		if err != nil {
			return nil, err
		}
		sum.Delivered, sum.Dropped = res.Delivered, res.Dropped
		sum.MaxUtilization, sum.AvgHops = finite(res.MaxUtilization), res.AvgHops
	case "maxmin":
		res, err := routing.MaxMinFairContext(ctx, g, c, demands)
		if err != nil {
			return nil, err
		}
		sum.Delivered = res.Throughput
		sum.Jain = res.JainIndex
	default:
		return nil, errs.BadParamf("scenario: unknown route mode %q", mode)
	}
	return sum, nil
}

// trafficMetricSet is the CapTraffic metric set the traffic stage
// evaluates on the registry-generated demands.
func trafficMetricSet() []metricreg.Selection {
	return []metricreg.Selection{
		{Name: "throughput"}, {Name: "max-utilization"},
		{Name: "jain"}, {Name: "delivered-frac"},
	}
}

// traffic runs the registry-driven route/allocate stage: the named
// demand model generates site-to-site demands over the topology's
// top-degree sites, and the CapTraffic metrics summarize the
// volume-aware allocation. One fused evaluation per replication on the
// shared frozen snapshot.
func (e *Engine) traffic(ctx context.Context, g *graph.Graph, c *graph.CSR, ts *TrafficSpec, seed int64) (*TrafficSummary, error) {
	sites := ts.Sites
	if sites <= 0 {
		sites = 16
	}
	// Unprovisioned edges count as one capacity unit (or ts.Capacity)
	// so generated topologies allocate instead of starving; edge weights
	// are untouched, so the shared frozen snapshot stays valid for path
	// pinning.
	defCap := ts.Capacity
	if defCap == 0 {
		defCap = 1
	}
	return trafficSummary(ctx, g, c, trafficreg.Selection{Name: ts.Model, Params: ts.Params}, sites, defCap, seed)
}

// trafficSummary evaluates one demand model over the topology's site
// geography and summarizes the CapTraffic metric set — the shared back
// half of the traffic stage and every timeline traffic row.
func trafficSummary(ctx context.Context, g *graph.Graph, c *graph.CSR, sel trafficreg.Selection, sites int, defCap float64, seed int64) (*TrafficSummary, error) {
	eval, demands, sites, err := trafficreg.PrepareGraphTraffic(ctx, g, sel, sites, defCap, seed)
	if err != nil {
		return nil, err
	}
	src := metricreg.NewSource(eval, c)
	src.SetTraffic(demands)
	vals, err := metricreg.Default().Evaluate(ctx, src, trafficMetricSet(),
		metricreg.Options{Workers: 1, Seed: seed})
	if err != nil {
		return nil, err
	}
	offered := 0.0
	for _, d := range demands {
		offered += d.Volume
	}
	return &TrafficSummary{
		Model:          trafficreg.Canonical(sel.Name),
		Sites:          sites,
		Demands:        len(demands),
		Offered:        offered,
		Throughput:     vals["throughput"].Scalar,
		DeliveredFrac:  vals["delivered-frac"].Scalar,
		MaxUtilization: vals["max-utilization"].Scalar,
		Jain:           vals["jain"].Scalar,
	}, nil
}

// finite clamps +Inf utilization (zero-capacity edges) to -1 so result
// tables and JSON stay well-formed.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

// randomDemands draws count random distinct-endpoint demands,
// deterministically from seed.
func randomDemands(n, count int, volume float64, seed int64) []routing.Demand {
	if n < 2 || count < 1 {
		return nil
	}
	if volume <= 0 {
		volume = 1
	}
	r := rng.New(rng.Derive(seed, 7001))
	out := make([]routing.Demand, 0, count)
	for len(out) < count {
		s, d := r.Intn(n), r.Intn(n)
		if s == d {
			continue
		}
		out = append(out, routing.Demand{Src: s, Dst: d, Volume: volume})
	}
	return out
}
