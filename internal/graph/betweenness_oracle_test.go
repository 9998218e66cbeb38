package graph_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
)

// legacyEdgeBetweenness is the edge-only Brandes pass that
// Graph.Betweenness replaced, kept verbatim (under a new name) as the
// oracle for its edge sums.
func legacyEdgeBetweenness(ctx context.Context, g *graph.Graph) ([]float64, error) {
	n := g.NumNodes()
	bc := make([]float64, g.NumEdges())
	sigma := make([]float64, n)
	dist := make([]int, n)
	delta := make([]float64, n)
	type pred struct{ v, e int }
	preds := make([][]pred, n)
	stack := make([]int, 0, n)
	queue := make([]int, 0, n)

	for s := 0; s < n; s++ {
		if s%64 == 0 {
			if err := errs.Ctx(ctx); err != nil {
				return nil, err
			}
		}
		for i := 0; i < n; i++ {
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		stack = stack[:0]
		queue = queue[:0]
		sigma[s] = 1
		dist[s] = 0
		queue = append(queue, s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			stack = append(stack, u)
			g.Neighbors(u, func(v, e int) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], pred{u, e})
				}
			})
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, pr := range preds[w] {
				c := sigma[pr.v] / sigma[w] * (1 + delta[w])
				bc[pr.e] += c
				delta[pr.v] += c
			}
		}
	}
	// Each unordered pair was counted twice (once per endpoint as source).
	for i := range bc {
		bc[i] /= 2
	}
	return bc, nil
}

// randomMultigraph draws a connected-ish multigraph: a random tree plus
// extra edges, a quarter of which duplicate an existing edge, so
// several shortest paths run over parallel edges.
func randomMultigraph(n, extra int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{})
	}
	for i := 1; i < n; i++ {
		g.AddEdge(graph.Edge{U: i, V: r.Intn(i), Weight: 1})
	}
	for k := 0; k < extra; k++ {
		if r.Intn(4) == 0 {
			e := *g.Edge(r.Intn(g.NumEdges()))
			g.AddEdge(e)
			continue
		}
		if u, v := r.Intn(n), r.Intn(n); u != v {
			g.AddEdge(graph.Edge{U: u, V: v, Weight: 1})
		}
	}
	return g
}

// TestBetweennessMatchesLegacyCopies pins the merged Brandes pass to the
// two copies it replaced: its node sums must equal the node-only pass
// and its edge sums the edge-only pass, bit for bit, on the kernel
// parity models and on multigraphs.
func TestBetweennessMatchesLegacyCopies(t *testing.T) {
	ctx := context.Background()
	type model struct {
		name  string
		build func(seed int64) (*graph.Graph, error)
	}
	models := []model{
		{"ba", func(seed int64) (*graph.Graph, error) { return gen.BarabasiAlbertContext(ctx, 400, 2, seed) }},
		{"er-gnm", func(seed int64) (*graph.Graph, error) { return gen.ErdosRenyiGNMContext(ctx, 400, 900, seed) }},
		{"waxman", func(seed int64) (*graph.Graph, error) { return gen.WaxmanContext(ctx, 300, 0.1, 0.5, seed) }},
		{"fkp", func(seed int64) (*graph.Graph, error) {
			return core.FKPContext(ctx, core.FKPConfig{N: 300, Alpha: 8, Seed: seed})
		}},
		{"multigraph", func(seed int64) (*graph.Graph, error) { return randomMultigraph(200, 300, seed), nil }},
	}
	for _, m := range models {
		for _, seed := range []int64{1, 2} {
			g, err := m.build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", m.name, seed, err)
			}
			node, edge, err := g.Betweenness(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wantNode := g.LegacyBetweenness()
			wantEdge, err := legacyEdgeBetweenness(ctx, g)
			if err != nil {
				t.Fatal(err)
			}
			if len(node) != len(wantNode) || len(edge) != len(wantEdge) {
				t.Fatalf("%s seed %d: %d node and %d edge sums, want %d and %d",
					m.name, seed, len(node), len(edge), len(wantNode), len(wantEdge))
			}
			for u := range node {
				if math.Float64bits(node[u]) != math.Float64bits(wantNode[u]) {
					t.Fatalf("%s seed %d: node %d = %v, node-only pass %v", m.name, seed, u, node[u], wantNode[u])
				}
			}
			for e := range edge {
				if math.Float64bits(edge[e]) != math.Float64bits(wantEdge[e]) {
					t.Fatalf("%s seed %d: edge %d = %v, edge-only pass %v", m.name, seed, e, edge[e], wantEdge[e])
				}
			}
		}
	}
}

// TestBetweennessHonorsCanceledContext checks that a pass under a
// canceled context stops with an errs.ErrCanceled-wrapping error and no
// sums.
func TestBetweennessHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	node, edge, err := randomMultigraph(100, 100, 1).Betweenness(ctx)
	if !errors.Is(err, errs.ErrCanceled) || node != nil || edge != nil {
		t.Fatalf("canceled pass gave (%d node, %d edge sums, %v), want no sums and ErrCanceled", len(node), len(edge), err)
	}
}
