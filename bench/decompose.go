package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/attackreg"
	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/robust"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trafficreg"
)

// decomposer re-executes scenario units by calling each layer's public
// functions directly, the way scenario.Engine does, and records a span
// around every call. Its RepResults must equal the engine's byte for
// byte; a mismatch counts as a failed unit, so the traced decomposition
// cannot drift from what the engine runs.
type decomposer struct {
	tr  *tracer
	reg *scenario.Registry

	mu         sync.Mutex
	snaps      map[string]*snapshot
	counts     metricSet
	nodesGrown float64
	csrBytes   float64
}

type snapshot struct {
	g *graph.Graph
	c *graph.CSR
}

func newDecomposer() *decomposer {
	return &decomposer{tr: newTracer(), reg: scenario.Default(), snaps: map[string]*snapshot{}, counts: metricSet{}}
}

func (d *decomposer) count(name string, v int) {
	d.mu.Lock()
	d.counts[name] += float64(v)
	d.mu.Unlock()
}

// generateOp names the layer that builds a model's topology.
func generateOp(model string) string {
	switch model {
	case "fkp", "hot":
		return "core.grow"
	case "isp":
		return "isp.generate"
	case "internet":
		return "peering.generate"
	case "mmp", "ring":
		return "access.generate"
	}
	return "gen.generate"
}

// identity resolves a unit's generator and complete parameters, and the
// key its topology is stored under. Like the engine's cache key it is
// the model, the resolved params and the seed.
func (d *decomposer) identity(sc *scenario.Scenario, seed int64) (scenario.Generator, scenario.Params, string, error) {
	gen, err := d.reg.Lookup(sc.Generate.Model)
	if err != nil {
		return nil, nil, "", err
	}
	p, err := scenario.Resolve(gen, sc.Generate.Params)
	if err != nil {
		return nil, nil, "", err
	}
	p = p.Clone()
	p["seed"] = float64(seed)
	key, err := json.Marshal(p)
	if err != nil {
		return nil, nil, "", err
	}
	return gen, p, gen.Name() + string(key), nil
}

// snapshot returns the unit's topology, generating and freezing it on
// first use. Units of one identity never race to build it: the cold
// workload has no shared identities, and pregenerate builds the warm
// workloads' topologies before their pass.
func (d *decomposer) snapshot(ctx context.Context, sc *scenario.Scenario, seed int64, unit, parent int) (*snapshot, error) {
	gen, p, key, err := d.identity(sc, seed)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	s := d.snaps[key]
	d.mu.Unlock()
	if s != nil {
		return s, nil
	}
	return d.build(ctx, gen, p, key, unit, parent)
}

func (d *decomposer) build(ctx context.Context, gen scenario.Generator, p scenario.Params, key string, unit, parent int) (*snapshot, error) {
	s := &snapshot{}
	op := generateOp(gen.Name())
	if err := d.tr.do(op, unit, parent, func() (err error) {
		s.g, err = gen.Generate(ctx, p)
		return err
	}); err != nil {
		return nil, err
	}
	_ = d.tr.do("graph.freeze", unit, parent, func() error {
		s.c = s.g.Freeze()
		return nil
	})
	d.mu.Lock()
	d.snaps[key] = s
	if op == "core.grow" {
		d.nodesGrown += float64(s.g.NumNodes())
	}
	d.csrBytes += float64(s.c.MemBytes())
	d.mu.Unlock()
	return s, nil
}

// pregenerate builds every distinct topology of the batch once, with
// the engine's fan-out, under the set-up root span.
func (d *decomposer) pregenerate(ctx context.Context, specs []scenario.Scenario, units []unitRef, root int) error {
	claimed := map[string]bool{}
	return par.ForEachErr(engineWorkers, len(units), func(u int) error {
		sc := &specs[units[u].si]
		gen, p, key, err := d.identity(sc, sc.SeedFor(units[u].rep))
		if err != nil {
			return err
		}
		d.mu.Lock()
		dup := claimed[key]
		claimed[key] = true
		d.mu.Unlock()
		if dup {
			return nil
		}
		_, err = d.build(ctx, gen, p, key, u, root)
		return err
	})
}

// pass runs every unit under a "scenario.unit" span with the engine's
// fan-out. Every unit runs; errs[u] records a unit's failure.
func (d *decomposer) pass(ctx context.Context, specs []scenario.Scenario, units []unitRef, root int) ([]scenario.RepResult, []error) {
	out := make([]scenario.RepResult, len(units))
	errs := make([]error, len(units))
	_ = par.ForEachErr(engineWorkers, len(units), func(u int) error {
		ref := units[u]
		id := d.tr.begin("scenario.unit", u, root)
		out[u], errs[u] = d.runUnit(ctx, &specs[ref.si], ref.rep, u, id)
		d.tr.end(id)
		return nil
	})
	return out, errs
}

// runUnit is scenario.Engine's replication, stage by stage.
func (d *decomposer) runUnit(ctx context.Context, sc *scenario.Scenario, rep, unit, parent int) (scenario.RepResult, error) {
	call := func(op string, fn func() error) error { return d.tr.do(op, unit, parent, fn) }
	seed := sc.SeedFor(rep)
	s, err := d.snapshot(ctx, sc, seed, unit, parent)
	if err != nil {
		return scenario.RepResult{}, err
	}
	g, c := s.g, s.c
	rr := scenario.RepResult{Seed: seed, Nodes: g.NumNodes(), Edges: g.NumEdges()}

	if m := sc.Measure; m != nil {
		if m.Profile || (!m.Degrees && len(m.Metrics) == 0) {
			if err := call("metrics.profile", func() error {
				prof, err := metrics.ProfileContext(ctx, g, c, seed, 1)
				rr.Profile = &prof
				return err
			}); err != nil {
				return scenario.RepResult{}, err
			}
		}
		if m.Degrees {
			_ = call("stats.degrees", func() error {
				ds := stats.AnalyzeDegrees(g)
				rr.Degrees = &scenario.DegreeSummary{
					MeanDegree: ds.MeanDegree,
					MaxDegree:  ds.MaxDegree,
					Tail:       ds.Classification.Kind.String(),
				}
				return nil
			})
		}
		if len(m.Metrics) > 0 {
			var st metricreg.EvalStats
			if err := call("metricreg.evaluate", func() (err error) {
				rr.Metrics, err = metricreg.Default().Evaluate(ctx, metricreg.NewSource(g, c), m.Metrics,
					metricreg.Options{Workers: 1, Seed: seed, Stats: &st})
				return err
			}); err != nil {
				return scenario.RepResult{}, err
			}
			d.count("metricreg.bfs_runs", st.BFSRuns)
			d.count("metricreg.bfs_requested", st.BFSRequested)
			d.count("metricreg.bulk_tasks", st.BulkTasks)
		}
	}

	if rt := sc.Route; rt != nil {
		sum, err := d.route(ctx, g, c, rt, seed, call)
		if err != nil {
			return scenario.RepResult{}, err
		}
		rr.Route = sum
	}

	if sc.Traffic != nil {
		sel, sites, defCap := trafficState(sc.Traffic)
		sum, err := d.trafficSummary(ctx, g, c, sel, sites, defCap, seed, call)
		if err != nil {
			return scenario.RepResult{}, err
		}
		rr.Traffic = sum
	}

	if at := sc.Attack; at != nil {
		fracs, trials := at.Fracs, at.Trials
		if len(fracs) == 0 {
			fracs = []float64{0.05, 0.1, 0.2}
		}
		if trials <= 0 {
			trials = 3
		}
		var curves []robust.MetricCurve
		if err := call("robust.sweep", func() (err error) {
			curves, err = robust.RunSweepContext(ctx, g, c, robust.SweepSpec{
				Attack: at.Strategy, Params: at.Params, Fracs: fracs, Trials: trials, Workers: 1,
			}, seed)
			return err
		}); err != nil {
			return scenario.RepResult{}, err
		}
		rr.Attack = make([]robust.SweepPoint, len(fracs))
		for i, f := range fracs {
			rr.Attack[i] = robust.SweepPoint{FracRemoved: f, LCCFrac: curves[0].Values[i]}
		}
		if atk, err := attackreg.Lookup(at.Strategy); err == nil && atk.Caps()&attackreg.CapRandomized == 0 {
			trials = 1
		}
		d.count("robust.sweep_steps", len(fracs)*trials)
	}

	if tl := sc.Timeline; tl != nil {
		pts, err := d.timeline(ctx, g, c, sc, tl, seed, call)
		if err != nil {
			return scenario.RepResult{}, err
		}
		rr.Timeline = pts
	}
	return rr, nil
}

type callFn func(op string, fn func() error) error

func (d *decomposer) route(ctx context.Context, g *graph.Graph, c *graph.CSR, rt *scenario.RouteSpec, seed int64, call callFn) (*scenario.RouteSummary, error) {
	demands := randomDemands(g.NumNodes(), rt.Demands, rt.Volume, seed)
	srcs := map[int]bool{}
	for _, dm := range demands {
		srcs[dm.Src] = true
	}
	d.count("routing.demands", len(demands))
	d.count("routing.sources", len(srcs))
	mode := rt.Mode
	if mode == "" {
		mode = "shortest"
	}
	sum := &scenario.RouteSummary{Mode: mode}
	err := call("routing.route", func() error {
		switch mode {
		case "shortest", "capacitated":
			route := routing.RouteShortestPathsContext
			if mode == "capacitated" {
				route = routing.RouteCapacitatedContext
			}
			res, err := route(ctx, g, c, demands)
			if err != nil {
				return err
			}
			sum.Delivered, sum.Dropped = res.Delivered, res.Dropped
			sum.MaxUtilization, sum.AvgHops = finite(res.MaxUtilization), res.AvgHops
		case "maxmin":
			res, err := routing.MaxMinFairContext(ctx, g, c, demands)
			if err != nil {
				return err
			}
			sum.Delivered, sum.Jain = res.Throughput, res.JainIndex
		default:
			return fmt.Errorf("unknown route mode %q", mode)
		}
		return nil
	})
	return sum, err
}

// randomDemands rebuilds the route stage's random-pairs demand set
// (scenario.randomDemands is unexported).
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
		s, t := r.Intn(n), r.Intn(n)
		if s == t {
			continue
		}
		out = append(out, routing.Demand{Src: s, Dst: t, Volume: volume})
	}
	return out
}

func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

func (d *decomposer) trafficSummary(ctx context.Context, g *graph.Graph, c *graph.CSR, sel trafficreg.Selection, sites int, defCap float64, seed int64, call callFn) (*scenario.TrafficSummary, error) {
	var eval *graph.Graph
	var demands []routing.Demand
	if err := call("trafficreg.prepare", func() (err error) {
		eval, demands, sites, err = trafficreg.PrepareGraphTraffic(ctx, g, sel, sites, defCap, seed)
		return err
	}); err != nil {
		return nil, err
	}
	d.count("trafficreg.demands", len(demands))
	src := metricreg.NewSource(eval, c)
	src.SetTraffic(demands)
	var vals map[string]metricreg.Value
	if err := call("metricreg.traffic", func() (err error) {
		vals, err = metricreg.Default().Evaluate(ctx, src, []metricreg.Selection{
			{Name: "throughput"}, {Name: "max-utilization"}, {Name: "jain"}, {Name: "delivered-frac"},
		}, metricreg.Options{Workers: 1, Seed: seed})
		return err
	}); err != nil {
		return nil, err
	}
	offered := 0.0
	for _, dm := range demands {
		offered += dm.Volume
	}
	return &scenario.TrafficSummary{
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

// timeline is the engine's temporal stage: connectivity events replay
// through robust in one call, and every capacity-set or demand-switch
// row re-evaluates the traffic metrics under the state current there.
func (d *decomposer) timeline(ctx context.Context, g *graph.Graph, c *graph.CSR, sc *scenario.Scenario, tl *scenario.TimelineSpec, seed int64, call callFn) ([]scenario.TimelinePoint, error) {
	total := len(tl.Events) * max(tl.Repeat, 1)
	mode, err := robust.ParseTimelineMode(tl.Mode)
	if err != nil {
		return nil, err
	}
	metricNames := tl.Metrics
	if len(metricNames) == 0 {
		metricNames = []string{"lcc"}
	}
	conn := make([]robust.TimelineEvent, 0, total)
	prefix := make([]int, total)
	epochs, lastFail := 0, false
	for i := 0; i < total; i++ {
		ev := &tl.Events[i%len(tl.Events)]
		if op, id, ok := connectivity(ev); ok {
			fail := op == robust.OpFailNode || op == robust.OpFailEdge
			if len(conn) == 0 || fail != lastFail {
				epochs++
			}
			lastFail = fail
			conn = append(conn, robust.TimelineEvent{Op: op, ID: id})
		}
		prefix[i] = len(conn)
	}
	d.count("robust.timeline_events", len(conn))
	d.count("robust.timeline_epochs", epochs)
	var curves []robust.MetricCurve
	if err := call("robust.timeline", func() (err error) {
		curves, err = robust.RunTimelineContext(ctx, c, conn, metricNames, mode, seed)
		return err
	}); err != nil {
		return nil, err
	}

	sel, sites, defCap := trafficState(sc.Traffic)
	trafficG, cloned := g, false
	pts := make([]scenario.TimelinePoint, total)
	for i := 0; i < total; i++ {
		ev := &tl.Events[i%len(tl.Events)]
		pt := scenario.TimelinePoint{Index: i, Event: ev.Event, Node: ev.Node, Edge: ev.Edge}
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
				return nil, fmt.Errorf("timeline event %d: edge %d out of [0,%d)", i, eid, g.NumEdges())
			}
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
		sum, err := d.trafficSummary(ctx, trafficG, c, sel, sites, defCap, seed, call)
		if err != nil {
			return nil, err
		}
		pt.Traffic = sum
		pts[i] = pt
	}
	return pts, nil
}

// trafficState is the traffic stage's demand model, site count and
// default capacity, with the engine's defaults (gravity, 16 sites, unit
// capacity) for whatever the spec leaves unset or omits.
func trafficState(ts *scenario.TrafficSpec) (sel trafficreg.Selection, sites int, defCap float64) {
	sites, defCap = 16, 1
	if ts == nil {
		return sel, sites, defCap
	}
	sel = trafficreg.Selection{Name: ts.Model, Params: ts.Params}
	if ts.Sites > 0 {
		sites = ts.Sites
	}
	if ts.Capacity != 0 {
		defCap = ts.Capacity
	}
	return sel, sites, defCap
}

// connectivity maps a timeline event to its robust op, as the engine
// does; traffic events have none.
func connectivity(ev *scenario.TimelineEventSpec) (robust.TimelineOp, int, bool) {
	switch ev.Event {
	case "fail-node":
		return robust.OpFailNode, *ev.Node, true
	case "fail-edge":
		return robust.OpFailEdge, *ev.Edge, true
	case "repair":
		if ev.Node != nil {
			return robust.OpRepairNode, *ev.Node, true
		}
		return robust.OpRepairEdge, *ev.Edge, true
	}
	return 0, 0, false
}
