package hotgen

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/rng"
	"repro/internal/stats"
)

// relabel returns a copy of g whose node u is node perm[u] of the copy,
// with the edge list shuffled; both come from seed.
func relabel(g *graph.Graph, seed int64) *graph.Graph {
	r := rng.New(seed)
	n := g.NumNodes()
	perm := r.Perm(n)
	nodes := make([]graph.Node, n)
	for u := 0; u < n; u++ {
		nodes[perm[u]] = *g.Node(u)
	}
	out := graph.New(n)
	for _, nd := range nodes {
		out.AddNode(nd)
	}
	for _, i := range r.Perm(g.NumEdges()) {
		e := *g.Edge(i)
		e.U, e.V = perm[e.U], perm[e.V]
		out.AddEdge(e)
	}
	return out
}

// TestMetricsInvariantUnderRelabeling is a metamorphic check of the
// metric registry: relabeling a topology's nodes by a random permutation
// and shuffling its edge list changes no label-independent metric. Counts
// and extremes must be equal exactly; averages and correlations, whose
// sums run in label or edge order, within 1e-12 relative. The hop metrics
// use every node as a source, since sampled sources are drawn by label.
func TestMetricsInvariantUnderRelabeling(t *testing.T) {
	exact := []string{"nodes", "edges", "mean-degree", "max-degree", "top-degree-frac", "lcc", "diameter"}
	approx := []string{"degree-cv", "clustering", "assortativity", "avg-hop-length", "expansion"}
	var set []metricreg.Selection
	for _, name := range append(append([]string(nil), exact...), approx...) {
		sel := metricreg.Selection{Name: name}
		switch name {
		case "diameter", "avg-hop-length", "expansion":
			sel.Params = map[string]float64{"sources": 0}
		}
		set = append(set, sel)
	}
	eval := func(g *graph.Graph) map[string]metricreg.Value {
		vals, err := metricreg.Evaluate(context.Background(), metricreg.NewSource(g, nil), set, metricreg.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	near := func(a, b float64) bool {
		return a == b || math.IsNaN(a) && math.IsNaN(b) || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
	}
	models := append(parityModels(), geoModels()[:2]...)
	for _, m := range models {
		for _, seed := range []int64{1, 2} {
			g, err := m.build(seed)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			ref := eval(g)
			for _, rs := range []int64{11, 12} {
				h := relabel(g, rs)
				got := eval(h)
				for _, name := range exact {
					if a, b := ref[name].Scalar, got[name].Scalar; a != b {
						t.Errorf("%s/%d/%d: %s = %v relabeled, %v before", m.name, seed, rs, name, b, a)
					}
				}
				for _, name := range approx {
					a, b := ref[name], got[name]
					if !near(a.Scalar, b.Scalar) || len(a.Series) != len(b.Series) {
						t.Errorf("%s/%d/%d: %s = %v %v relabeled, %v %v before", m.name, seed, rs, name, b.Scalar, b.Series, a.Scalar, a.Series)
						continue
					}
					for i := range a.Series {
						if !near(a.Series[i], b.Series[i]) {
							t.Errorf("%s/%d/%d: %s[%d] = %v relabeled, %v before", m.name, seed, rs, name, i, b.Series[i], a.Series[i])
						}
					}
				}
				if a, b := stats.ClassifyTail(g.Degrees()).Kind, stats.ClassifyTail(h.Degrees()).Kind; a != b {
					t.Errorf("%s/%d/%d: tail kind %v relabeled, %v before", m.name, seed, rs, b, a)
				}
			}
		}
	}
}
