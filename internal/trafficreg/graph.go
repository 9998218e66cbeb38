package trafficreg

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// SiteGeography lifts a topology into the demand models' input domain:
// the k highest-degree nodes (ties to the lowest node id) become
// traffic sites at their node coordinates, with population proportional
// to degree+1 — hubs play the role of the big cities, matching the
// §2.1 economics that concentrate customers there. Sites are ordered by
// descending population so rank-based models (zipf-hotspot, bimodal,
// single-epicenter) see the same convention as a generated geography.
// The returned slice maps site index to node id.
func SiteGeography(g *graph.Graph, k int) (*traffic.Geography, []int) {
	n := g.NumNodes()
	if k <= 0 || k > n {
		k = n
	}
	ids := topDegree(g, k)
	geo := &traffic.Geography{Region: geom.UnitSquare}
	for rank, id := range ids {
		nd := g.Node(id)
		geo.Cities = append(geo.Cities, traffic.City{
			Name:       fmt.Sprintf("site-%02d", rank),
			Loc:        geom.Point{X: nd.X, Y: nd.Y},
			Population: float64(g.Degree(id) + 1),
		})
	}
	return geo, ids
}

// topDegree returns the k highest-degree node ids of g, ties to the
// lower id, in that order. It keeps the best k seen so far in a heap
// whose root is the worst of them, so it costs O(n log k) rather than a
// sort of all n ids; 1 <= k <= n.
func topDegree(g *graph.Graph, k int) []int {
	better := func(a, b int) bool {
		da, db := g.Degree(a), g.Degree(b)
		return da > db || (da == db && a < b)
	}
	h := make([]int, 0, k)
	for u := 0; u < g.NumNodes(); u++ {
		if len(h) < k {
			h = append(h, u)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !better(h[p], h[i]) {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
			continue
		}
		if !better(u, h[0]) {
			continue
		}
		h[0] = u
		for i := 0; ; {
			w := i // the worst of i and its children
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < k && better(h[w], h[c]) {
					w = c
				}
			}
			if w == i {
				break
			}
			h[i], h[w] = h[w], h[i]
			i = w
		}
	}
	sort.Slice(h, func(a, b int) bool { return better(h[a], h[b]) })
	return h
}

// EnsureCapacities returns a topology whose every edge has positive
// capacity: g itself when that already holds (or when def <= 0),
// otherwise a clone with def substituted for each non-positive
// capacity. Generated-but-unprovisioned topologies carry zero
// capacities, which would starve any allocation; the traffic stage
// evaluates them as unit-capacity networks instead.
func EnsureCapacities(g *graph.Graph, def float64) *graph.Graph {
	if def <= 0 {
		return g
	}
	ok := true
	for _, e := range g.Edges() {
		if e.Capacity <= 0 {
			ok = false
			break
		}
	}
	if ok {
		return g
	}
	clone := g.Clone()
	for i := range clone.Edges() {
		if e := clone.Edge(i); e.Capacity <= 0 {
			e.Capacity = def
		}
	}
	return clone
}

// PrepareGraphTraffic is the shared front half of evaluating a topology
// under a demand model (the scenario traffic stage and `topostats
// -traffic` both go through it): sites is clamped to the node count,
// unprovisioned edges get capacity (<= 0 keeps raw zeros, 1 is the
// conventional default), and sel's demands are generated over the
// resulting topology. The returned graph is g itself unless capacities
// were substituted; the demand slice is never nil, so it can feed a
// metric source directly.
func PrepareGraphTraffic(ctx context.Context, g *graph.Graph, sel Selection, sites int, capacity float64, seed int64) (*graph.Graph, []routing.Demand, int, error) {
	if n := g.NumNodes(); sites <= 0 || sites > n {
		sites = n
	}
	eval := EnsureCapacities(g, capacity)
	demands, err := GraphDemands(ctx, eval, sel, sites, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	if demands == nil {
		demands = []routing.Demand{}
	}
	return eval, demands, sites, nil
}

// GraphDemands generates sel's demand matrix over the topology's site
// geography and flattens it into per-pair routing demands: one demand
// per unordered site pair with positive offered volume, in ascending
// (site i, site j) order so the demand list — and everything allocated
// from it — is deterministic. sites <= 0 or sites > n uses every node.
func GraphDemands(ctx context.Context, g *graph.Graph, sel Selection, sites int, seed int64) ([]routing.Demand, error) {
	if g.NumNodes() < 2 {
		return nil, nil
	}
	geo, ids := SiteGeography(g, sites)
	dm, err := GenerateDemand(ctx, geo, sel, seed)
	if err != nil {
		return nil, err
	}
	var out []routing.Demand
	for i := range ids {
		if err := errs.Ctx(ctx); err != nil {
			return nil, err
		}
		for j := i + 1; j < len(ids); j++ {
			if v := dm[i][j]; v > 0 {
				out = append(out, routing.Demand{Src: ids[i], Dst: ids[j], Volume: v})
			}
		}
	}
	return out, nil
}
