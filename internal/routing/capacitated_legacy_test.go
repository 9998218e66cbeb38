package routing

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// routeCapacitatedLegacy is the admission loop as it stood before the
// pinned-path rewrite, kept as the parity baseline: one full serial
// Dijkstra per distinct source, its three n-length arrays cached per
// source, and the parent walk done inline per demand.
func routeCapacitatedLegacy(g *graph.Graph, demands []Demand) (*Result, error) {
	if err := checkDemands(g, demands); err != nil {
		return nil, err
	}
	res := &Result{Load: make([]float64, g.NumEdges())}
	remaining := make([]float64, g.NumEdges())
	for i, e := range g.Edges() {
		remaining[i] = e.Capacity
	}
	c := g.Freeze()
	ws := graph.GetWorkspace(c.NumNodes())
	defer ws.Release()
	var totalW, totalHops float64
	type spt struct {
		dist       []float64
		parent     []int32
		parentEdge []int32
	}
	cache := map[int]spt{}
	for _, d := range demands {
		if d.Volume <= 0 {
			continue
		}
		tr, ok := cache[d.Src]
		if !ok {
			c.DijkstraTo(ws, d.Src, nil)
			tr = spt{
				dist:       append([]float64(nil), ws.Dist...),
				parent:     append([]int32(nil), ws.Parent...),
				parentEdge: append([]int32(nil), ws.ParentEdge...),
			}
			cache[d.Src] = tr
		}
		if math.IsInf(tr.dist[d.Dst], 1) {
			res.Dropped += d.Volume
			continue
		}
		admit := d.Volume
		hops := 0
		for v := int32(d.Dst); v != int32(d.Src); v = tr.parent[v] {
			if r := remaining[tr.parentEdge[v]]; r < admit {
				admit = r
			}
			hops++
		}
		if admit < 0 {
			admit = 0
		}
		for v := int32(d.Dst); v != int32(d.Src); v = tr.parent[v] {
			remaining[tr.parentEdge[v]] -= admit
			res.Load[tr.parentEdge[v]] += admit
		}
		res.Delivered += admit
		res.Dropped += d.Volume - admit
		if admit > 0 {
			totalW += admit * tr.dist[d.Dst]
			totalHops += admit * float64(hops)
		}
	}
	if res.Delivered > 0 {
		res.AvgPathWeight = totalW / res.Delivered
		res.AvgHops = totalHops / res.Delivered
	}
	res.MaxUtilization = maxUtilization(g, res.Load)
	return res, nil
}

// TestRouteCapacitatedMatchesLegacy pins admission over pinPaths' pinned
// paths to the legacy per-source tree cache, bit for bit, on graphs with
// finite capacities tight enough to admit demands partially. Demands
// share a handful of sources, include zero volumes, and reach an
// isolated node, so cache reuse, skipped demands and drops all occur.
func TestRouteCapacitatedMatchesLegacy(t *testing.T) {
	models := []struct {
		name string
		gen  func(seed int64) (*graph.Graph, error)
	}{
		{"ba", func(seed int64) (*graph.Graph, error) {
			return gen.BarabasiAlbertContext(context.Background(), 300, 2, seed)
		}},
		{"er-gnm", func(seed int64) (*graph.Graph, error) {
			return gen.ErdosRenyiGNMContext(context.Background(), 300, 700, seed)
		}},
		{"waxman", func(seed int64) (*graph.Graph, error) {
			return gen.WaxmanContext(context.Background(), 300, 0.15, 0.6, seed)
		}},
	}
	for _, m := range models {
		for _, seed := range []int64{1, 2} {
			g, err := m.gen(seed)
			if err != nil {
				t.Fatal(err)
			}
			isolated := g.AddNode(graph.Node{})
			r := rng.New(rng.Derive(seed, 98))
			for i := range g.Edges() {
				g.Edge(i).Capacity = 1 + 9*r.Float64()
			}
			n := g.NumNodes()
			sources := []int{r.Intn(n - 1), r.Intn(n - 1), r.Intn(n - 1), r.Intn(n - 1)}
			var demands []Demand
			for len(demands) < 200 {
				s, d := sources[r.Intn(len(sources))], r.Intn(n)
				if len(demands)%7 == 0 {
					d = isolated
				}
				if s == d {
					continue
				}
				vol := 0.1 + 4*r.Float64()
				if len(demands)%11 == 0 {
					vol = 0
				}
				demands = append(demands, Demand{Src: s, Dst: d, Volume: vol})
			}
			got, err := RouteCapacitatedContext(context.Background(), g, nil, demands)
			if err != nil {
				t.Fatal(err)
			}
			want, err := routeCapacitatedLegacy(g, demands)
			if err != nil {
				t.Fatal(err)
			}
			if got.Delivered != want.Delivered || got.Dropped != want.Dropped || got.MaxUtilization != want.MaxUtilization ||
				got.AvgPathWeight != want.AvgPathWeight || got.AvgHops != want.AvgHops {
				t.Fatalf("%s seed %d: result %+v, legacy %+v", m.name, seed, *got, *want)
			}
			if want.Dropped == 0 || want.Delivered == 0 {
				t.Fatalf("%s seed %d: degenerate instance (delivered %v dropped %v)", m.name, seed, want.Delivered, want.Dropped)
			}
			for e := range want.Load {
				if got.Load[e] != want.Load[e] {
					t.Fatalf("%s seed %d: load[%d] = %v, legacy %v", m.name, seed, e, got.Load[e], want.Load[e])
				}
			}
		}
	}
}
