package metricreg_test

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/params"
	"repro/internal/rng"
)

// distortionPerSourceBFS is the distortion metric as it stood before the
// rooted-forest rewrite, kept as the parity baseline: the sampled edges
// grouped by their U endpoint, one BFS of the MST per distinct source,
// per-source partial sums reduced in source order.
func distortionPerSourceBFS(g *graph.Graph, sample int, seed int64) float64 {
	m := g.NumEdges()
	n := g.NumNodes()
	if m == 0 || n == 0 {
		return 0
	}
	mstIDs, _ := g.KruskalMST()
	tree := graph.New(n)
	for i := 0; i < n; i++ {
		tree.AddNode(*g.Node(i))
	}
	for _, id := range mstIDs {
		e := g.Edge(id)
		tree.AddEdge(graph.Edge{U: e.U, V: e.V, Weight: e.Weight})
	}
	edges := make([]int, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, i)
	}
	if sample > 0 && sample < m {
		r := rng.New(seed)
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		edges = edges[:sample]
	}
	bySrc := map[int][]int{}
	for _, id := range edges {
		e := g.Edge(id)
		bySrc[e.U] = append(bySrc[e.U], e.V)
	}
	srcs := make([]int, 0, len(bySrc))
	for s := range bySrc {
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)
	tc := tree.Freeze()
	ws := graph.NewWorkspace(n)
	total := 0.0
	count := 0
	for _, s := range srcs {
		tc.BFS(ws, s)
		partial, k := 0.0, 0
		for _, v := range bySrc[s] {
			if ws.Hop[v] > 0 {
				partial += float64(ws.Hop[v])
				k++
			}
		}
		total += partial
		count += k
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// withExtras returns g plus a parallel copy, with a different weight, of
// every fifth edge and a separate 12-node ring component.
func withExtras(g *graph.Graph) *graph.Graph {
	out := g.Clone()
	for i := 0; i < g.NumEdges(); i += 5 {
		e := *g.Edge(i)
		e.Weight = e.Weight*1.5 + 0.25
		out.AddEdge(e)
	}
	base := out.NumNodes()
	for i := 0; i < 12; i++ {
		out.AddNode(graph.Node{X: float64(i), Y: 2})
	}
	for i := 0; i < 12; i++ {
		out.AddEdge(graph.Edge{U: base + i, V: base + (i+1)%12, Weight: 1, Cable: -1})
	}
	return out
}

// TestDistortionMatchesPerSourceBFS pins the rooted-forest distortion to
// the per-source-BFS baseline bit for bit, on every model, with parallel
// edges and a second component added, at sample 0 (all edges), 7 and m.
func TestDistortionMatchesPerSourceBFS(t *testing.T) {
	models := []struct {
		name  string
		build func(seed int64) (*graph.Graph, error)
	}{
		{"ba", func(seed int64) (*graph.Graph, error) { return gen.BarabasiAlbert(400, 2, seed) }},
		{"er-gnm", func(seed int64) (*graph.Graph, error) { return gen.ErdosRenyiGNM(400, 900, seed) }},
		{"waxman", func(seed int64) (*graph.Graph, error) { return gen.Waxman(300, 0.1, 0.5, seed) }},
		{"fkp", func(seed int64) (*graph.Graph, error) { return core.FKP(core.FKPConfig{N: 300, Alpha: 8, Seed: seed}) }},
	}
	for _, mdl := range models {
		for _, seed := range []int64{1, 2} {
			base, err := mdl.build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", mdl.name, seed, err)
			}
			for variant, g := range map[string]*graph.Graph{"plain": base, "extras": withExtras(base)} {
				for _, sample := range []int{0, 7, g.NumEdges()} {
					vals, err := metricreg.Default().Evaluate(context.Background(), metricreg.NewSource(g, nil),
						[]metricreg.Selection{{Name: "distortion", Params: params.Params{"sample": float64(sample)}}},
						metricreg.Options{Seed: seed, Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					got := vals["distortion"].Scalar
					want := distortionPerSourceBFS(g, sample, seed)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%s seed %d sample %d: distortion %v, per-source BFS %v", mdl.name, variant, seed, sample, got, want)
					}
				}
			}
		}
	}
}
