package metricreg

import (
	"context"
	"sort"
	"sync"

	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/routing"
)

// Accumulator is the streaming state of one metric during one
// evaluation. Finalize reduces whatever the engine fed it — always in a
// fixed (slot) order, so results are identical for any worker count —
// into the metric's Value. Every accumulator must additionally
// implement BFSAccumulator or BulkAccumulator so the engine can
// schedule it.
type Accumulator interface {
	Finalize() Value
}

// BFSAccumulator subscribes to the fused BFS sweep: the engine unions
// the sources of every subscribed accumulator, runs one BFS per
// distinct source, and hands each result to every accumulator that
// asked for that source — N metrics over shared sources cost one
// traversal each, not N.
type BFSAccumulator interface {
	Accumulator
	// Sources returns the BFS source nodes this accumulator needs for
	// an n-node snapshot, deterministically from its params and seed.
	// The engine calls it exactly once, before any Observe.
	Sources(n int) []int
	// Observe records the finished BFS from src — Sources(n)[slot] —
	// whose hop distances are in ws.Hop. Distinct slots may be observed
	// concurrently; implementations keep per-slot state and reduce in
	// Finalize.
	Observe(slot, src int, ws *graph.Workspace)
}

// BulkAccumulator runs as one standalone task of the evaluation
// schedule, parallelizing internally up to the engine's worker bound.
type BulkAccumulator interface {
	Accumulator
	Run(ctx context.Context, src *Source, workers int) error
}

// MaskedAccumulator re-evaluates the metric with a node-removal mask
// applied — the robustness-sweep contract. Implementations are pure in
// (ws, c, removed), so one accumulator is reused across every step of
// an attack schedule.
type MaskedAccumulator interface {
	Accumulator
	EvaluateMasked(ws *graph.Workspace, c *graph.CSR, removed []bool) float64
}

// Source is what a metric set is evaluated against: a frozen CSR
// snapshot, optionally the graph it came from (CapGraph metrics), and a
// lazily computed, shared connectivity bit (CapConnected metrics). The
// snapshot is frozen lazily — an evaluation whose metrics only read the
// graph (e.g. assortativity) never pays for a freeze.
type Source struct {
	g *graph.Graph

	csrOnce sync.Once
	c       *graph.CSR

	connOnce sync.Once
	conn     bool

	// Traffic state (CapTraffic metrics): the attached demand set and
	// the routing/allocation results computed from it, once per Source
	// and shared by every traffic metric of the set.
	demands     []routing.Demand
	trafficOnce sync.Once
	alloc       *trafficEval
	trafficErr  error
}

// trafficEval bundles the shared traffic evaluation: the volume-aware
// max-min fair allocation, the uncapacitated shortest-path routing of
// the full offered volumes (the provisioning-quality view), and the
// total offered volume.
type trafficEval struct {
	mm      *routing.MaxMinResult
	sp      *routing.Result
	offered float64
}

// NewSource builds a Source from a graph and/or its frozen snapshot:
// pass both to reuse an existing CSR, g alone to freeze lazily on first
// CSR use, or c alone for a CSR-only source (CapGraph metrics are then
// rejected).
func NewSource(g *graph.Graph, c *graph.CSR) *Source {
	return &Source{g: g, c: c}
}

// Graph returns the mutable graph, or nil for a CSR-only source.
func (s *Source) Graph() *graph.Graph { return s.g }

// CSR returns the frozen snapshot, freezing the graph on first use if
// none was supplied. Safe for concurrent callers.
func (s *Source) CSR() *graph.CSR {
	s.csrOnce.Do(func() {
		if s.c == nil && s.g != nil {
			s.c = s.g.Freeze()
		}
	})
	return s.c
}

// NumNodes returns the topology's node count without forcing a freeze.
func (s *Source) NumNodes() int {
	if s.c != nil {
		return s.c.NumNodes()
	}
	return s.g.NumNodes()
}

// SetTraffic attaches a demand set to the source, enabling CapTraffic
// metrics (throughput, max-utilization, jain, delivered-frac). Call it
// before Evaluate; the demands are routed and allocated lazily, once,
// on first use by any traffic metric. The slice is retained.
func (s *Source) SetTraffic(demands []routing.Demand) { s.demands = demands }

// HasTraffic reports whether a demand set is attached (an empty,
// non-nil demand set counts: the traffic metrics then report zeros).
func (s *Source) HasTraffic() bool { return s.demands != nil }

// traffic computes the shared traffic evaluation once: the volume-aware
// max-min fair allocation and the shortest-path routing of the attached
// demands, from a single path-pinning pass over the snapshot. Safe for
// concurrent traffic metrics.
func (s *Source) traffic(ctx context.Context) (*trafficEval, error) {
	s.trafficOnce.Do(func() {
		ev := &trafficEval{}
		for _, d := range s.demands {
			ev.offered += d.Volume
		}
		ev.sp, ev.mm, s.trafficErr = routing.RouteAndAllocateContext(ctx, s.g, s.CSR(), s.demands)
		if s.trafficErr != nil {
			return
		}
		s.alloc = ev
	})
	return s.alloc, s.trafficErr
}

// Connected reports whether the topology is connected, i.e. whether the
// snapshot's largest component holds every node (the empty topology
// counts as connected, matching graph.IsConnected). The bit is computed
// once per Source and shared by every metric that declares CapConnected.
func (s *Source) Connected() bool {
	s.connOnce.Do(func() {
		c := s.CSR()
		ws := graph.GetWorkspace(c.NumNodes())
		defer ws.Release()
		s.conn = c.LargestComponentMasked(ws, nil, nil) == c.NumNodes()
	})
	return s.conn
}

// Options tune one Evaluate call.
type Options struct {
	// Workers bounds each fan-out level of the schedule (<= 0 means
	// GOMAXPROCS). All reductions happen in fixed order, so results are
	// byte-identical for any value.
	Workers int
	// Seed drives every sampled decision (BFS source choice, resilience
	// trials) deterministically.
	Seed int64
	// Stats, when non-nil, receives the planned schedule's shape — the
	// fused-vs-independent pass accounting.
	Stats *EvalStats
}

// EvalStats describes the traversal schedule one Evaluate planned.
type EvalStats struct {
	// BFSRuns is the number of BFS traversals the fused sweep executed:
	// the size of the union of every subscriber's source set.
	BFSRuns int
	// BFSRequested is the sum of the subscribers' source-set sizes —
	// what the same set would have cost evaluated independently.
	BFSRequested int
	// BulkTasks is the number of standalone metric tasks.
	BulkTasks int
}

// Evaluate computes a metric set against src as one fused schedule:
// selections are resolved and validated (unknown metrics, duplicate
// names, bad params, and missing capabilities wrap errs.ErrBadParam),
// BFS-consuming accumulators share a single sweep over the union of
// their sources, and remaining accumulators run as parallel standalone
// tasks. The context is checked at iteration boundaries; the first
// (lowest-task-index) failure is returned. Results are keyed by metric
// name and byte-identical for any Options.Workers.
func (r *Registry) Evaluate(ctx context.Context, src *Source, set []Selection, opt Options) (map[string]Value, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if src == nil || (src.g == nil && src.c == nil) {
		return nil, errs.BadParamf("metricreg: evaluation needs a source with a graph or CSR snapshot")
	}
	if len(set) == 0 {
		return nil, errs.BadParamf("metricreg: empty metric set")
	}
	n := src.NumNodes()
	accs := make([]Accumulator, len(set))
	seen := make(map[string]bool, len(set))
	for i, sel := range set {
		if seen[sel.Name] {
			return nil, errs.BadParamf("metricreg: duplicate metric %q in set", sel.Name)
		}
		seen[sel.Name] = true
		m, resolved, err := r.Resolve(sel)
		if err != nil {
			return nil, err
		}
		if m.Caps()&CapGraph != 0 && src.g == nil {
			return nil, errs.BadParamf("metricreg: metric %q needs the full graph, source holds only a CSR snapshot", sel.Name)
		}
		if m.Caps()&CapTraffic != 0 && !src.HasTraffic() {
			return nil, errs.BadParamf("metricreg: metric %q needs a demand set, source has no traffic attached (SetTraffic)", sel.Name)
		}
		accs[i] = m.New(resolved, opt.Seed)
	}

	// Plan the fused BFS sweep: union the subscribers' sources so each
	// distinct source is traversed exactly once, whatever the overlap.
	type sub struct {
		acc  BFSAccumulator
		slot int
	}
	bySrc := make(map[int][]sub)
	var union []int
	requested := 0
	var bulks []BulkAccumulator
	for i, a := range accs {
		if ba, ok := a.(BFSAccumulator); ok {
			srcs := ba.Sources(n)
			requested += len(srcs)
			for slot, s := range srcs {
				if len(bySrc[s]) == 0 {
					union = append(union, s)
				}
				bySrc[s] = append(bySrc[s], sub{ba, slot})
			}
			continue
		}
		if bu, ok := a.(BulkAccumulator); ok {
			bulks = append(bulks, bu)
			continue
		}
		return nil, errs.BadParamf("metricreg: metric %q accumulator implements neither sweep nor bulk role", set[i].Name)
	}
	sort.Ints(union)
	if opt.Stats != nil {
		*opt.Stats = EvalStats{BFSRuns: len(union), BFSRequested: requested, BulkTasks: len(bulks)}
	}

	// Execute: the sweep and every bulk task are peers of one parallel
	// schedule; each bounds its internal fan-out by the same worker
	// count. Errors are selected by task index, deterministically.
	tasks := make([]func() error, 0, len(bulks)+1)
	if len(union) > 0 {
		tasks = append(tasks, func() error {
			c := src.CSR()
			// One pooled workspace per sweep worker: the fused sweep then
			// runs allocation-free at any node count.
			workers := par.Workers(opt.Workers, len(union))
			wss := make([]*graph.Workspace, workers)
			for w := range wss {
				wss[w] = graph.GetWorkspace(n)
				defer wss[w].Release()
			}
			return par.ForEachWorkerErr(workers, len(union), func(w, i int) error {
				if err := errs.Ctx(ctx); err != nil {
					return err
				}
				u := union[i]
				ws := wss[w]
				c.BFS(ws, u)
				for _, sb := range bySrc[u] {
					sb.acc.Observe(sb.slot, u, ws)
				}
				return nil
			})
		})
	}
	for _, b := range bulks {
		b := b
		tasks = append(tasks, func() error { return b.Run(ctx, src, opt.Workers) })
	}
	taskErr := make([]error, len(tasks))
	par.ForEach(opt.Workers, len(tasks), func(i int) { taskErr[i] = tasks[i]() })
	for _, err := range taskErr {
		if err != nil {
			return nil, err
		}
	}

	out := make(map[string]Value, len(set))
	for i, sel := range set {
		out[sel.Name] = accs[i].Finalize()
	}
	return out, nil
}

// Evaluate computes a metric set with the default registry.
func Evaluate(ctx context.Context, src *Source, set []Selection, opt Options) (map[string]Value, error) {
	return defaultRegistry.Evaluate(ctx, src, set, opt)
}
