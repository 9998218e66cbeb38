package main

import (
	"fmt"
	"math/rand"

	"repro/internal/rng"
	"repro/internal/scenario"
)

// sizes scales a workload. nodes multiplies every topology's node count,
// work multiplies per-unit work (BFS sources, demands, sites, events),
// and seeds is the replication count of the seed-replicated scenarios.
// The benchmark runs at fullSizes; bench_test.go runs a tiny table.
type sizes struct {
	nodes, work float64
	seeds       int
}

// fullSizes is sized for a 2-core machine: each measured pass takes
// two to three seconds, so a run of --seconds 30 measures ten or more.
var fullSizes = sizes{nodes: 1, work: 1, seeds: 3}

// n scales a node count; the floor keeps every generator valid.
func (s sizes) n(v int) float64 { return float64(max(int(float64(v)*s.nodes), 24)) }

// w scales a work count.
func (s sizes) w(v int) int { return max(int(float64(v)*s.work), 2) }

// Load shape: fixed for the 2-core machine the benchmark is sized for,
// and generated from one process.
const (
	engineWorkers    = 2 // scenario.Options.Workers of every engine pass
	serviceExecutors = 2 // service.Config.Executors
	serviceClients   = 2 // closed-loop clients, one connection each
	setupRepeats     = 3 // set-ups per run; setup_s is their median
	minPasses        = 4 // measured passes per run, at least
	pollInterval     = 2 // ms, service.Client.PollInterval
)

// workload is one named input set. Engine workloads build a scenario
// batch; the service workload builds a job mix.
type workload struct {
	name, why string
	// cold gives every measured pass a fresh Engine, so the snapshot
	// cache only receives writes.
	cold      bool
	scenarios func(seed int64, sz sizes) []scenario.Scenario
	service   func(seed int64, sz sizes) []scenario.Scenario
}

var workloads = []workload{
	{
		name:      "design-cold",
		why:       "optimization-designed topology generation (HOT/FKP, ISP, peering, access) on a cold snapshot cache",
		cold:      true,
		scenarios: designCold,
	},
	{
		name:      "analysis-warm",
		why:       "metric, BFS, robustness, routing and traffic layers on cached topologies; generation is absent from the passes",
		scenarios: analysisWarm,
	},
	{
		name:    "service-mixed",
		why:     "the full path through HTTP, JSON, job polling and a snapshot cache that both hits and evicts",
		service: serviceMix,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// seedsFor derives k topology seeds for scenario idx from the run seed.
// They stay below 2^31 so they survive the float64 generator params.
func seedsFor(seed int64, idx, k int) []int64 {
	out := make([]int64, k)
	for i := range out {
		out[i] = rng.Derive(seed, idx*64+i) & 0x7fffffff
	}
	return out
}

func gen(model string, p scenario.Params) scenario.GenerateSpec {
	return scenario.GenerateSpec{Model: model, Params: p}
}

func metricsOf(names ...string) *scenario.MeasureSpec {
	m := &scenario.MeasureSpec{}
	for _, n := range names {
		m.Metrics = append(m.Metrics, scenario.MetricSelection{Name: n})
	}
	return m
}

// bfsSet is a fused sampled-BFS metric set: three BFS consumers that
// share one source sample, plus the named bulk metrics.
func bfsSet(sources int, bulk ...string) *scenario.MeasureSpec {
	src := scenario.Params{"sources": float64(sources)}
	m := metricsOf(bulk...)
	m.Metrics = append([]scenario.MetricSelection{
		{Name: "avg-hop-length", Params: src},
		{Name: "diameter", Params: src},
		{Name: "expansion", Params: src},
	}, m.Metrics...)
	return m
}

// designCold generates every optimization-driven model of the paper. The
// heaviest growth runs come first so the two workers stay busy to the end
// of the pass.
func designCold(seed int64, sz sizes) []scenario.Scenario {
	measure := metricsOf("max-degree", "degree-cv", "top-degree-frac")
	measure.Degrees = true
	type model struct {
		name string
		gen  scenario.GenerateSpec
	}
	models := []model{
		{"hot-links2", gen("hot", scenario.Params{"n": sz.n(16000), "alpha": 8, "links": 2})},
		{"hot-ports8", gen("hot", scenario.Params{"n": sz.n(8000), "ports": 8})},
		{"fkp-alpha4", gen("fkp", scenario.Params{"n": sz.n(8000), "alpha": 4})},
		{"isp-cost", gen("isp", scenario.Params{"cities": 60, "customers": sz.n(8000), "pops": 20})},
		{"isp-profit", gen("isp", scenario.Params{"cities": 60, "customers": sz.n(8000), "pops": 20, "price": 2})},
		{"fkp-alpha20", gen("fkp", scenario.Params{"n": sz.n(16000), "alpha": 20})},
		{"internet", gen("internet", scenario.Params{"isps": 16, "customers": sz.n(800)})},
		{"mmp", gen("mmp", scenario.Params{"n": sz.n(3000)})},
		{"ring", gen("ring", scenario.Params{"n": sz.n(3000)})},
	}
	out := make([]scenario.Scenario, len(models))
	for i, m := range models {
		out[i] = scenario.Scenario{Name: m.name, Generate: m.gen, Measure: measure, Seeds: seedsFor(seed, i, sz.seeds)}
	}
	return out
}

// analysisWarm exercises the analysis layers (metricreg, the BFS and
// Dijkstra kernels, robust, routing, trafficreg) on a fixed topology
// set. Scenarios that name the same model, params and seed share one
// cached snapshot, so after the warm-up every lookup hits and the passes
// generate nothing. Units run in decreasing order of cost, so the pass
// does not end with one worker busy on a long unit while the other
// idles. BA-300k is above the 2^18-node size at which the BFS and
// Dijkstra kernels switch to their parallel paths.
//
// No unit routes on an ISP or internet design: their co-located
// customers give zero-weight edges, on which Dijkstra's parent tie-break
// can form a cycle that the path walks of routing never leave.
// Capacitated admission therefore runs on HOT, whose edges carry no
// provisioned capacity, so it admits nothing but still does the
// per-source Dijkstra and the path walks.
func analysisWarm(seed int64, sz sizes) []scenario.Scenario {
	ba300k := gen("ba", scenario.Params{"n": sz.n(300000)})
	ba50k := gen("ba", scenario.Params{"n": sz.n(50000)})
	er50k := gen("er-gnm", scenario.Params{"n": sz.n(50000), "m": 2 * sz.n(50000)})
	hot50k := gen("hot", scenario.Params{"n": sz.n(50000), "links": 2})
	ba20k := gen("ba", scenario.Params{"n": sz.n(20000)})
	fkp2k := gen("fkp", scenario.Params{"n": sz.n(2000)})
	s := func(i int) []int64 { return seedsFor(seed, i, 1) }
	r := rand.New(rand.NewSource(rng.Derive(seed, 9001)))
	route := func(mode string, demands int) *scenario.RouteSpec {
		return &scenario.RouteSpec{Mode: mode, Demands: sz.w(demands)}
	}
	traffic := func(model string, sites int) *scenario.TrafficSpec {
		return &scenario.TrafficSpec{Model: model, Sites: sz.w(sites)}
	}
	trafficEvents := trafficTimeline(r, int(sz.n(20000)))
	edgeEvents := edgeTimeline(r, int(sz.n(50000)), sz.w(100))
	nodeEvents := nodeTimeline(r, int(sz.n(50000)), sz.w(60))
	epicentre := scenario.Params{"x": r.Float64(), "y": r.Float64()}
	return []scenario.Scenario{
		{Name: "ba20k-traffic-timeline", Generate: ba20k, Traffic: traffic("bimodal", 24), Seeds: s(4),
			Timeline: &scenario.TimelineSpec{Events: trafficEvents, Repeat: 2}},
		{Name: "ba20k-distortion-resilience", Generate: ba20k, Measure: &scenario.MeasureSpec{Metrics: []scenario.MetricSelection{
			{Name: "distortion", Params: scenario.Params{"sample": float64(sz.w(150))}},
			{Name: "resilience", Params: scenario.Params{"steps": 5, "trials": 2}},
		}}, Seeds: s(4)},
		{Name: "ba50k-bfs", Generate: ba50k, Measure: bfsSet(sz.w(32), "clustering", "assortativity", "spectral-gap"), Seeds: s(1)},
		{Name: "er50k-edge-timeline", Generate: er50k, Seeds: s(2), Timeline: &scenario.TimelineSpec{Events: edgeEvents, Repeat: 2}},
		{Name: "er50k-maxmin", Generate: er50k, Route: route("maxmin", 50), Seeds: s(2)},
		{Name: "ba300k-shortest", Generate: ba300k, Route: route("shortest", 6), Seeds: s(0)},
		{Name: "ba50k-shortest", Generate: ba50k, Route: route("shortest", 60), Seeds: s(1)},
		{Name: "ba50k-node-timeline", Generate: ba50k, Seeds: s(1),
			Timeline: &scenario.TimelineSpec{Events: nodeEvents, Metrics: []string{"lcc", "mean-degree"}}},
		{Name: "ba300k-bfs", Generate: ba300k, Measure: bfsSet(sz.w(8), "assortativity"), Seeds: s(0)},
		{Name: "ba10k-adaptive-degree", Generate: gen("ba", scenario.Params{"n": sz.n(10000)}), Seeds: s(7),
			Attack: &scenario.AttackSpec{Strategy: "adaptive-degree", Fracs: []float64{0.005, 0.01, 0.02}}},
		{Name: "fkp2k-profile", Generate: fkp2k, Measure: &scenario.MeasureSpec{Profile: true}, Seeds: s(5)},
		{Name: "hot50k-capacitated", Generate: hot50k, Route: route("capacitated", 30), Seeds: s(3)},
		{Name: "hot50k-shortest", Generate: hot50k, Route: route("shortest", 60), Seeds: s(3)},
		{Name: "fkp2k-bottleneck-edge", Generate: fkp2k, Seeds: s(5),
			Attack: &scenario.AttackSpec{Strategy: "bottleneck-edge", Fracs: []float64{0.01, 0.05, 0.1}}},
		{Name: "er50k-uniform", Generate: er50k, Traffic: traffic("uniform", 32), Seeds: s(2)},
		{Name: "hot50k-gravity", Generate: hot50k, Traffic: traffic("gravity", 48), Seeds: s(3)},
		{Name: "ba50k-zipf-hotspot", Generate: ba50k, Traffic: traffic("zipf-hotspot", 32), Seeds: s(1)},
		{Name: "er50k-random-failure", Generate: er50k, Seeds: s(2),
			Attack: &scenario.AttackSpec{Strategy: "random-failure", Fracs: []float64{0.05, 0.1, 0.2, 0.4}, Trials: 8}},
		{Name: "hot50k-geographic", Generate: hot50k, Seeds: s(3),
			Attack: &scenario.AttackSpec{Strategy: "geographic", Params: epicentre, Fracs: []float64{0.05, 0.1, 0.2, 0.4}}},
		{Name: "ba50k-degree", Generate: ba50k, Seeds: s(1),
			Attack: &scenario.AttackSpec{Strategy: "degree", Fracs: []float64{0.01, 0.02, 0.05, 0.1, 0.2}}},
	}
}

// nodeTimeline draws k node events: fail a random node, or (two times in
// five, once something is down) repair a failed one.
func nodeTimeline(r *rand.Rand, n, k int) []scenario.TimelineEventSpec {
	var down []int
	out := make([]scenario.TimelineEventSpec, k)
	for i := range out {
		if len(down) > 0 && r.Intn(5) < 2 {
			j := r.Intn(len(down))
			id := down[j]
			down = append(down[:j], down[j+1:]...)
			out[i] = scenario.TimelineEventSpec{Event: "repair", Node: &id}
			continue
		}
		id := r.Intn(n)
		down = append(down, id)
		out[i] = scenario.TimelineEventSpec{Event: "fail-node", Node: &id}
	}
	return out
}

// edgeTimeline is nodeTimeline over edge ids in [0, m).
func edgeTimeline(r *rand.Rand, m, k int) []scenario.TimelineEventSpec {
	events := nodeTimeline(r, m, k)
	for i := range events {
		events[i].Edge, events[i].Node = events[i].Node, nil
		if events[i].Event == "fail-node" {
			events[i].Event = "fail-edge"
		}
	}
	return events
}

// trafficTimeline mixes node failures with capacity-set and
// demand-switch events, each of which re-evaluates the traffic metrics.
// Edge ids stay below n, which every BA topology on n nodes has.
func trafficTimeline(r *rand.Rand, n int) []scenario.TimelineEventSpec {
	node := func() *int { v := r.Intn(n); return &v }
	capacity := func() *float64 { v := 0.5 + 2*r.Float64(); return &v }
	return []scenario.TimelineEventSpec{
		{Event: "fail-node", Node: node()},
		{Event: "capacity-set", Edge: node(), Capacity: capacity()},
		{Event: "demand-switch", Model: "bimodal", Params: scenario.Params{"peak": 0.25, "offpeak": 1}},
		{Event: "fail-node", Node: node()},
		{Event: "capacity-set", Edge: node(), Capacity: capacity()},
		{Event: "demand-switch", Model: "gravity"},
	}
}

// serviceMix is the service job mix: 3 models x seeds x 4 stage kinds,
// each a single-replication scenario. The four jobs of one topology are
// consecutive, and a pass submits them all in this order. The working
// set of distinct topologies is about three times the service's cache
// budget, so the LRU has evicted each topology before the next pass
// comes back to it: every pass misses once per topology and hits (or
// joins the in-flight generation) on its other three jobs, however the
// two clients interleave.
func serviceMix(seed int64, sz sizes) []scenario.Scenario {
	models := []struct {
		name string
		gen  scenario.GenerateSpec
	}{
		{"ba10k", gen("ba", scenario.Params{"n": sz.n(10000)})},
		{"hot10k", gen("hot", scenario.Params{"n": sz.n(10000)})},
		{"er10k", gen("er-gnm", scenario.Params{"n": sz.n(10000), "m": 2 * sz.n(10000)})},
	}
	src := scenario.Params{"sources": float64(sz.w(16))}
	stages := []struct {
		name  string
		apply func(*scenario.Scenario)
	}{
		{"bfs", func(sc *scenario.Scenario) {
			sc.Measure = &scenario.MeasureSpec{Metrics: []scenario.MetricSelection{
				{Name: "avg-hop-length", Params: src}, {Name: "diameter", Params: src}, {Name: "expansion", Params: src},
			}}
		}},
		{"degree-sweep", func(sc *scenario.Scenario) {
			sc.Attack = &scenario.AttackSpec{Strategy: "degree", Fracs: []float64{0.05, 0.1, 0.2}}
		}},
		{"gravity", func(sc *scenario.Scenario) { sc.Traffic = &scenario.TrafficSpec{Model: "gravity", Sites: sz.w(16)} }},
		{"route", func(sc *scenario.Scenario) { sc.Route = &scenario.RouteSpec{Demands: sz.w(100)} }},
	}
	var out []scenario.Scenario
	for mi, m := range models {
		for _, s := range seedsFor(seed, mi, 2*sz.seeds) {
			for _, st := range stages {
				sc := scenario.Scenario{Name: fmt.Sprintf("%s-%d-%s", m.name, s, st.name), Generate: m.gen, Seeds: []int64{s}}
				st.apply(&sc)
				out = append(out, sc)
			}
		}
	}
	return out
}
