// Package routing evaluates a topology's performance under a traffic
// demand: shortest-path routing, per-link loads, utilization against
// provisioned capacities, and delivered throughput. It is the
// "performance" half of the paper's cost/performance tradeoff, used by
// the ISP designer (internal/isp) and by experiments E4, E5 and E8.
//
// All multi-source entry points freeze the graph into a CSR snapshot
// once and fan the per-source shortest-path computations out across a
// worker pool with pooled workspaces (internal/graph); per-demand
// results are written to disjoint slots and reduced in demand order, so
// output is byte-identical for any worker count. Each source's search
// (graph.CSR.DijkstraTo) stops once that source's destinations are
// settled, and a source with one destination searches from both ends,
// meeting in the middle, so a random-pair route scans a small fraction
// of the graph instead of about half of it. On designed, geographic
// topologies (HOT, FKP, ISP), whose edges are short, both ends are also
// steered toward each other by the Euclidean distance that remains,
// which cuts a HOT route's rows about ninefold again; the snapshot
// decides this, so routing passes no option.
package routing

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/par"
)

// Demand is one traffic requirement between two nodes of the graph.
type Demand struct {
	Src, Dst int
	Volume   float64
}

// Result reports what happened when a demand set was routed.
type Result struct {
	// Load[i] is the traffic crossing edge i.
	Load []float64
	// Delivered is the demand volume that found a path (and, in
	// capacitated mode, fit within capacity).
	Delivered float64
	// Dropped is the demand volume that could not be carried.
	Dropped float64
	// MaxUtilization is max over edges of Load/Capacity; +Inf if any
	// loaded edge has zero capacity, 0 if no edges.
	MaxUtilization float64
	// AvgPathWeight is the demand-weighted average path length (by edge
	// weight) of delivered traffic.
	AvgPathWeight float64
	// AvgHops is the demand-weighted average hop count of delivered
	// traffic.
	AvgHops float64
}

// pathSet is the pinned shortest path of every demand: the path weight
// (Inf when unroutable or the demand has no volume) and the edge ids of
// the path in dst→src order.
type pathSet struct {
	dist  []float64
	edges [][]int32
}

// pinPaths computes every positive-volume demand's shortest path on the
// frozen snapshot. Distinct sources are distributed across the worker
// pool; each source's Dijkstra runs serially on a pooled workspace,
// stops once that source's destinations are settled, and writes only
// its own demands' slots, so the result does not depend on scheduling.
// A parent walk longer than n-1 hops (a parent cycle, which the
// smallest-id tie-break can form across zero-weight edges) is an error.
func pinPaths(ctx context.Context, c *graph.CSR, demands []Demand) (*pathSet, error) {
	ps := &pathSet{dist: make([]float64, len(demands)), edges: make([][]int32, len(demands))}
	for i := range ps.dist {
		ps.dist[i] = math.Inf(1)
	}
	bySrc := map[int][]int{}
	for i, d := range demands {
		if d.Volume <= 0 {
			continue
		}
		bySrc[d.Src] = append(bySrc[d.Src], i)
	}
	srcs := make([]int, 0, len(bySrc))
	for s := range bySrc {
		srcs = append(srcs, s)
	}
	// Output does not depend on processing order (per-demand writes are
	// disjoint); sorting just keeps the dispatch order stable for
	// debugging and costs O(S log S) against S Dijkstra runs.
	sort.Ints(srcs)
	// One pooled workspace and target buffer per worker, reserved up
	// front: the per-source loop then allocates nothing beyond the
	// paths, however many sources fan out.
	workers := par.Workers(0, len(srcs))
	wss := make([]*graph.Workspace, workers)
	targets := make([][]int, workers)
	for w := range wss {
		wss[w] = graph.GetWorkspace(c.NumNodes())
		defer wss[w].Release()
	}
	maxHops := c.NumNodes() - 1
	err := par.ForEachWorkerErr(workers, len(srcs), func(w, si int) error {
		if err := errs.Ctx(ctx); err != nil {
			return fmt.Errorf("routing: pin paths: %w", err)
		}
		s := srcs[si]
		ws := wss[w]
		tg := targets[w][:0]
		for _, i := range bySrc[s] {
			tg = append(tg, demands[i].Dst)
		}
		targets[w] = tg
		c.DijkstraTo(ws, s, tg)
		for _, i := range bySrc[s] {
			dst := demands[i].Dst
			if math.IsInf(ws.Dist[dst], 1) {
				continue
			}
			ps.dist[i] = ws.Dist[dst]
			var path []int32
			for v := int32(dst); v != int32(s); v = ws.Parent[v] {
				if len(path) == maxHops {
					return fmt.Errorf("routing: path %d->%d: parent walk exceeds %d hops (a parent cycle across zero-weight edges)", s, dst, maxHops)
				}
				path = append(path, ws.ParentEdge[v])
			}
			ps.edges[i] = path
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ps, nil
}

// RouteShortestPathsContext routes every demand on the (weight-)shortest path,
// ignoring capacities: loads may exceed capacity, and the resulting
// utilization says how well the topology was provisioned. Demands whose
// endpoints are disconnected are dropped.
//
// Shortest-path trees are computed once per distinct source, in parallel
// across sources, on the pre-frozen snapshot c (nil freezes
// internally). The per-source fan-out checks ctx before each
// shortest-path tree.
func RouteShortestPathsContext(ctx context.Context, g *graph.Graph, c *graph.CSR, demands []Demand) (*Result, error) {
	if err := checkDemands(g, demands); err != nil {
		return nil, err
	}
	if c == nil {
		c = g.Freeze()
	}
	ps, err := pinPaths(ctx, c, demands)
	if err != nil {
		return nil, err
	}
	return shortestFromPaths(g, demands, ps), nil
}

// shortestFromPaths accumulates the shortest-path routing result from
// an already-pinned path set.
func shortestFromPaths(g *graph.Graph, demands []Demand, ps *pathSet) *Result {
	res := &Result{Load: make([]float64, g.NumEdges())}
	var totalW, totalHops float64
	for i, d := range demands {
		if d.Volume <= 0 {
			continue
		}
		path := ps.edges[i]
		if path == nil {
			res.Dropped += d.Volume
			continue
		}
		for _, e := range path {
			res.Load[e] += d.Volume
		}
		res.Delivered += d.Volume
		totalW += d.Volume * ps.dist[i]
		totalHops += d.Volume * float64(len(path))
	}
	if res.Delivered > 0 {
		res.AvgPathWeight = totalW / res.Delivered
		res.AvgHops = totalHops / res.Delivered
	}
	res.MaxUtilization = maxUtilization(g, res.Load)
	return res
}

// RouteAndAllocateContext pins each positive-volume demand's shortest
// path once on the snapshot and evaluates both views of the pinned
// paths: the uncapacitated shortest-path routing of the full offered
// volumes (how well the provisioning matches the load) and the
// volume-aware max-min fair allocation (what throughput it actually
// delivers). Results are identical to calling RouteShortestPathsContext
// and MaxMinFairContext separately, at one parallel path-pinning pass
// instead of two — the traffic-metric evaluation path.
func RouteAndAllocateContext(ctx context.Context, g *graph.Graph, c *graph.CSR, demands []Demand) (*Result, *MaxMinResult, error) {
	if err := checkDemands(g, demands); err != nil {
		return nil, nil, err
	}
	if c == nil {
		c = g.Freeze()
	}
	ps, err := pinPaths(ctx, c, demands)
	if err != nil {
		return nil, nil, err
	}
	return shortestFromPaths(g, demands, ps), maxminFromPaths(g, demands, ps), nil
}

// RouteCapacitatedContext routes demands in the given order on shortest
// paths, admitting each demand only up to the remaining bottleneck
// capacity along its path (partial delivery allowed). It is a greedy
// online admission model: earlier demands grab capacity first —
// inherently sequential, so only the path pinning runs in parallel, on
// the pre-frozen snapshot c (nil freezes internally). Cancellation is
// checked during the path-pinning phase; the admission pass over the
// pinned paths runs to completion.
func RouteCapacitatedContext(ctx context.Context, g *graph.Graph, c *graph.CSR, demands []Demand) (*Result, error) {
	if err := checkDemands(g, demands); err != nil {
		return nil, err
	}
	if c == nil {
		c = g.Freeze()
	}
	ps, err := pinPaths(ctx, c, demands)
	if err != nil {
		return nil, err
	}
	res := &Result{Load: make([]float64, g.NumEdges())}
	remaining := make([]float64, g.NumEdges())
	for i, e := range g.Edges() {
		remaining[i] = e.Capacity
	}
	var totalW, totalHops float64
	for i, d := range demands {
		if d.Volume <= 0 {
			continue
		}
		path := ps.edges[i]
		if path == nil {
			res.Dropped += d.Volume
			continue
		}
		// Bottleneck along path.
		admit := d.Volume
		for _, e := range path {
			if r := remaining[e]; r < admit {
				admit = r
			}
		}
		if admit < 0 {
			admit = 0
		}
		for _, e := range path {
			remaining[e] -= admit
			res.Load[e] += admit
		}
		res.Delivered += admit
		res.Dropped += d.Volume - admit
		if admit > 0 {
			totalW += admit * ps.dist[i]
			totalHops += admit * float64(len(path))
		}
	}
	if res.Delivered > 0 {
		res.AvgPathWeight = totalW / res.Delivered
		res.AvgHops = totalHops / res.Delivered
	}
	res.MaxUtilization = maxUtilization(g, res.Load)
	return res, nil
}

func maxUtilization(g *graph.Graph, load []float64) float64 {
	max := 0.0
	for i, l := range load {
		if l <= 0 {
			continue
		}
		cap := g.Edge(i).Capacity
		if cap <= 0 {
			return math.Inf(1)
		}
		if u := l / cap; u > max {
			max = u
		}
	}
	return max
}

func checkDemands(g *graph.Graph, demands []Demand) error {
	n := g.NumNodes()
	for i, d := range demands {
		if d.Src < 0 || d.Src >= n || d.Dst < 0 || d.Dst >= n {
			return errs.BadParamf("routing: demand %d references missing node (%d->%d, n=%d)", i, d.Src, d.Dst, n)
		}
		if d.Src == d.Dst {
			return errs.BadParamf("routing: demand %d is a self-loop at node %d", i, d.Src)
		}
		// NaN must be rejected here: a NaN ceiling would freeze at rate
		// NaN in the volume-aware filling (every comparison against it
		// is false), poisoning Throughput and JainIndex.
		if d.Volume < 0 || math.IsNaN(d.Volume) {
			return errs.BadParamf("routing: demand %d has invalid volume %v", i, d.Volume)
		}
	}
	return nil
}
