package routing

import (
	"context"
	"math"
	"sort"

	"repro/internal/graph"
)

// MaxMinResult is the outcome of max-min fair rate allocation.
type MaxMinResult struct {
	// Rate[i] is the allocated rate of demands[i] (0 for unroutable).
	Rate []float64
	// Throughput is the sum of allocated rates.
	Throughput float64
	// JainIndex is Jain's fairness index over the routable demands'
	// allocated rates — the volume-aware fair shares, i.e. each flow's
	// final rate min(fair share, offered Volume): 1.0 = perfectly
	// equal, 1/k = maximally unfair. Flows frozen at their offered
	// volume below the common fair share therefore lower the index.
	JainIndex float64
	// BottleneckEdges is the number of edges that are saturated.
	BottleneckEdges int
}

// MaxMinFair computes the volume-aware max-min fair ("water-filling")
// rate allocation for the demand set, with each demand pinned to its
// shortest path and rates constrained by edge capacities and by each
// flow's offered Volume. Demands are elastic up to their volume
// (TCP-like with a finite backlog): the paper's performance analyses
// care about what throughput the topology's provisioning actually
// supports under the offered demand, not just whether volumes fit.
//
// Path pinning fans sources out across the worker pool on a frozen CSR
// snapshot; the filling loop itself is sequential and fully
// deterministic (bottleneck ties break to the lowest edge id).
//
// Algorithm: progressive filling with volume ceilings. All unfrozen
// flows rise together at one water level; each round raises the level
// to the nearest of (a) the smallest equal share saturating an edge and
// (b) the smallest unfrozen offered volume. A flow freezes at
// min(fair share, Volume) — and a flow frozen at its volume stops
// charging the edges it crosses, so its unconsumed capacity is
// redistributed to the still-rising flows in later rounds. O(E * F) in
// the worst case.
func MaxMinFair(g *graph.Graph, demands []Demand) (*MaxMinResult, error) {
	return MaxMinFairContext(context.Background(), g, nil, demands)
}

// MaxMinFairContext is MaxMinFair with cancellation and an optional
// pre-frozen snapshot (nil freezes internally). Cancellation is checked
// during the parallel path-pinning phase; the filling loop itself is
// bounded by the flow count and runs to completion.
func MaxMinFairContext(ctx context.Context, g *graph.Graph, c *graph.CSR, demands []Demand) (*MaxMinResult, error) {
	if err := checkDemands(g, demands); err != nil {
		return nil, err
	}
	// Pin each demand to its shortest path (edge id list), in parallel
	// over distinct sources.
	if c == nil {
		c = g.Freeze()
	}
	ps, err := pinPaths(ctx, c, demands)
	if err != nil {
		return nil, err
	}
	return maxminFromPaths(g, demands, ps), nil
}

// maxminFromPaths runs the volume-aware progressive filling over an
// already-pinned path set — the sequential, fully deterministic half of
// the allocator.
func maxminFromPaths(g *graph.Graph, demands []Demand, ps *pathSet) *MaxMinResult {
	nd := len(demands)
	res := &MaxMinResult{Rate: make([]float64, nd)}
	flowEdges := ps.edges

	// edgeFlows[e] = indices of flows crossing edge e; live[e] counts the
	// not-yet-frozen ones. usedEdges lists loaded edges ascending so the
	// bottleneck scan is deterministic.
	m := g.NumEdges()
	edgeFlows := make([][]int32, m)
	for i, es := range flowEdges {
		for _, e := range es {
			edgeFlows[e] = append(edgeFlows[e], int32(i))
		}
	}
	usedEdges := make([]int, 0, m)
	live := make([]int, m)
	remaining := make([]float64, m)
	for e := 0; e < m; e++ {
		if len(edgeFlows[e]) == 0 {
			continue
		}
		usedEdges = append(usedEdges, e)
		live[e] = len(edgeFlows[e])
		remaining[e] = g.Edge(e).Capacity
	}
	frozen := make([]bool, nd)
	active := 0
	for i, es := range flowEdges {
		if len(es) > 0 {
			active++
		} else {
			frozen[i] = true
		}
	}

	freeze := func(i int32, rate float64) {
		frozen[i] = true
		active--
		res.Rate[i] = rate
		for _, e := range flowEdges[i] {
			live[e]--
		}
	}

	// Routable flows ordered by (Volume asc, index asc): the cursor
	// walks it once across all rounds, so finding the nearest volume
	// ceiling and freezing the flows that reached it are amortized O(F)
	// total instead of an O(F) rescan per round.
	byVolume := make([]int32, 0, nd)
	for i := range demands {
		if !frozen[i] {
			byVolume = append(byVolume, int32(i))
		}
	}
	sort.Slice(byVolume, func(a, b int) bool {
		va, vb := demands[byVolume[a]].Volume, demands[byVolume[b]].Volume
		if va != vb {
			return va < vb
		}
		return byVolume[a] < byVolume[b]
	})
	cursor := 0

	// level is the common rate of every still-rising flow.
	level := 0.0
	// freezeCeilings freezes every still-rising flow whose offered
	// volume the level has reached, in (Volume, index) order.
	freezeCeilings := func() {
		for cursor < len(byVolume) {
			i := byVolume[cursor]
			if frozen[i] {
				cursor++
				continue
			}
			if demands[i].Volume > level {
				break
			}
			freeze(i, demands[i].Volume)
			cursor++
		}
	}
	for active > 0 {
		// The tightest edge: min over edges of remaining / unfrozen,
		// ties to the lowest edge id. Every active flow crosses at least
		// one live edge, so a bottleneck candidate always exists.
		bestEdge, bestRise := -1, math.Inf(1)
		for _, e := range usedEdges {
			if live[e] == 0 {
				continue
			}
			rise := remaining[e] / float64(live[e])
			if rise < bestRise {
				bestEdge, bestRise = e, rise
			}
		}
		if bestEdge == -1 {
			break
		}
		if bestRise < 0 {
			bestRise = 0
		}
		// The nearest volume ceiling among the rising flows (the cursor
		// skips flows an edge saturation froze early).
		for cursor < len(byVolume) && frozen[byVolume[cursor]] {
			cursor++
		}
		minVol := math.Inf(1)
		if cursor < len(byVolume) {
			minVol = demands[byVolume[cursor]].Volume
		}
		volRise := minVol - level

		if volRise < bestRise {
			// Volume ceilings freeze first: the cheapest flows stop at
			// their offered volume, charging only what they consume, and
			// the loop re-scans for the next bottleneck with their
			// capacity left on the table.
			for _, e := range usedEdges {
				if live[e] > 0 {
					remaining[e] -= volRise * float64(live[e])
					if remaining[e] < 0 {
						remaining[e] = 0
					}
				}
			}
			level = minVol // exact, so the ceiling freeze cannot miss
			freezeCeilings()
			continue
		}

		// Edge saturation: freeze every rising flow on the bottleneck at
		// the level, after charging the rise to all live edges.
		for _, e := range usedEdges {
			if live[e] > 0 {
				remaining[e] -= bestRise * float64(live[e])
				if remaining[e] < 0 {
					remaining[e] = 0
				}
			}
		}
		level += bestRise
		res.BottleneckEdges++
		for _, i := range edgeFlows[bestEdge] {
			if !frozen[i] {
				freeze(i, level)
			}
		}
		// Volume ceilings met exactly at this level freeze too (their
		// rate equals the level either way).
		freezeCeilings()
	}

	sum, sumSq := 0.0, 0.0
	routable := 0
	for i := range demands {
		res.Throughput += res.Rate[i]
		if len(flowEdges[i]) > 0 {
			routable++
			sum += res.Rate[i]
			sumSq += res.Rate[i] * res.Rate[i]
		}
	}
	if routable > 0 && sumSq > 0 {
		res.JainIndex = sum * sum / (float64(routable) * sumSq)
	}
	return res
}
