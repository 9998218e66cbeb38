package graph_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/access"
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

// randomForest draws a random tree on n nodes under shuffled labels,
// so a parent's id may exceed its child's, and drops each edge with
// probability drop, which splits it into several components, isolated
// nodes among them.
func randomForest(n int, drop float64, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	label := r.Perm(n)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{})
	}
	for i := 1; i < n; i++ {
		if r.Float64() >= drop {
			g.AddEdge(graph.Edge{U: label[i], V: label[r.Intn(i)], Weight: 1})
		}
	}
	return g
}

// requireLegacyBits fails unless g's Betweenness sums equal the
// node-only and edge-only legacy passes bit for bit.
func requireLegacyBits(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	ctx := context.Background()
	node, edge, err := g.Betweenness(ctx)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wantNode := g.LegacyBetweenness()
	wantEdge, err := legacyEdgeBetweenness(ctx, g)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(node) != len(wantNode) || len(edge) != len(wantEdge) {
		t.Fatalf("%s: %d node and %d edge sums, want %d and %d", label, len(node), len(edge), len(wantNode), len(wantEdge))
	}
	for u := range node {
		if math.Float64bits(node[u]) != math.Float64bits(wantNode[u]) {
			t.Fatalf("%s: node %d = %v, node-only pass %v", label, u, node[u], wantNode[u])
		}
	}
	for e := range edge {
		if math.Float64bits(edge[e]) != math.Float64bits(wantEdge[e]) {
			t.Fatalf("%s: edge %d = %v, edge-only pass %v", label, e, edge[e], wantEdge[e])
		}
	}
}

// requireForestPath fails unless the forest path accepts g and
// Betweenness matches the legacy passes on it.
func requireForestPath(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	if _, _, ok := g.ForestBetweenness(); !ok {
		t.Fatalf("%s: forest path refused a forest", label)
	}
	requireLegacyBits(t, label, g)
}

// TestForestBetweennessMatchesLegacyCopies pins the forest path to the
// two legacy Brandes copies bit for bit: on the designed trees at
// n ∈ {1, 2, 3, 50, 3000} and on random forests, the forest path must
// accept the graph and Betweenness must return the legacy node and edge
// sums. Graphs with fewer edges than nodes that still hold a cycle must
// be refused, and take the Brandes loop to the same bits. The race
// detector slows the legacy passes about tenfold and has nothing to find
// in them, so under it the 3000-node trees are left out.
func TestForestBetweennessMatchesLegacyCopies(t *testing.T) {
	ctx := context.Background()
	accessTree := func(n int, seed int64, design func(*access.Instance) (*access.Network, error)) (*graph.Graph, error) {
		in, err := access.RandomInstance(access.InstanceConfig{
			N: n - 1, Seed: seed, DemandMin: 1, DemandMax: 16, RootAtCenter: true,
		})
		if err != nil {
			return nil, err
		}
		net, err := design(in)
		if err != nil {
			return nil, err
		}
		return net.Graph, nil
	}
	type model struct {
		name  string
		minN  int
		build func(n int, seed int64) (*graph.Graph, error)
	}
	models := []model{
		{"fkp", 1, func(n int, seed int64) (*graph.Graph, error) {
			return core.FKPContext(ctx, core.FKPConfig{N: n, Alpha: 4, Seed: seed})
		}},
		{"hot", 1, func(n int, seed int64) (*graph.Graph, error) {
			g, _, err := core.GrowHOTContext(ctx, core.HOTConfig{
				N: n, Seed: seed, Distance: 8, Centrality: 1, LinksPerArrival: 1,
			})
			return g, err
		}},
		{"ba-m1", 2, func(n int, seed int64) (*graph.Graph, error) { return gen.BarabasiAlbertContext(ctx, n, 1, seed) }},
		{"mmp", 2, func(n int, seed int64) (*graph.Graph, error) {
			return accessTree(n, seed, func(in *access.Instance) (*access.Network, error) { return access.MMPIncremental(in, seed) })
		}},
		{"sample-augment", 2, func(n int, seed int64) (*graph.Graph, error) {
			return accessTree(n, seed, func(in *access.Instance) (*access.Network, error) {
				return access.SampleAndAugment(in, seed, 0.25)
			})
		}},
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{1, 2, 3, 50, 3000} {
				for _, seed := range []int64{1, 2, 3} {
					if n < m.minN || (n == 3000 && graph.RaceEnabled()) {
						continue
					}
					label := fmt.Sprintf("%s n=%d seed %d", m.name, n, seed)
					g, err := m.build(n, seed)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if g.NumNodes() != n || !g.IsTree() {
						t.Fatalf("%s: %d nodes, tree %v; want an %d-node tree", label, g.NumNodes(), g.IsTree(), n)
					}
					requireForestPath(t, label, g)
				}
			}
		})
	}
	t.Run("random-forest", func(t *testing.T) {
		for _, drop := range []float64{0.1, 0.6} {
			for _, seed := range []int64{1, 2, 3} {
				label := fmt.Sprintf("random forest drop %v seed %d", drop, seed)
				g := randomForest(300, drop, seed)
				if _, sizes := g.ConnectedComponents(); len(sizes) < 2 {
					t.Fatalf("%s: one component", label)
				}
				requireForestPath(t, label, g)
			}
		}
	})

	t.Run("cyclic", func(t *testing.T) {
		// Each graph below has fewer edges than nodes and a cycle.
		parallel := randomForest(50, 0.3, 4)
		parallel.AddEdge(*parallel.Edge(parallel.NumEdges() / 2))
		// Joining two neighbours of one node closes a triangle in a
		// component of a forest.
		oneCycle := randomForest(50, 0.3, 5)
		var nb []int
		for u := 0; len(nb) < 2; u++ {
			nb = nb[:0]
			oneCycle.Neighbors(u, func(v, _ int) { nb = append(nb, v) })
		}
		oneCycle.AddEdge(graph.Edge{U: nb[0], V: nb[1], Weight: 1})
		triangle := graph.New(6)
		for i := 0; i < 6; i++ {
			triangle.AddNode(graph.Node{})
		}
		for i := 0; i < 3; i++ {
			triangle.AddEdge(graph.Edge{U: i, V: (i + 1) % 3, Weight: 1})
		}
		for _, c := range []struct {
			name string
			g    *graph.Graph
		}{{"parallel pair in a forest", parallel}, {"forest plus one cycle", oneCycle}, {"triangle plus isolated nodes", triangle}} {
			if c.g.NumEdges() >= c.g.NumNodes() {
				t.Fatalf("%s: %d edges on %d nodes, want fewer edges than nodes", c.name, c.g.NumEdges(), c.g.NumNodes())
			}
			if _, _, ok := c.g.ForestBetweenness(); ok {
				t.Fatalf("%s: forest path accepted a graph with a cycle", c.name)
			}
			requireLegacyBits(t, c.name, c.g)
		}
	})
}

// TestBetweennessHonorsCanceledContext checks that a pass under a
// canceled context stops with an errs.ErrCanceled-wrapping error and no
// sums, on the Brandes path (a multigraph) and the forest path (a tree).
func TestBetweennessHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, g := range []*graph.Graph{randomMultigraph(100, 100, 1), randomForest(100, 0, 1)} {
		node, edge, err := g.Betweenness(ctx)
		if !errors.Is(err, errs.ErrCanceled) || node != nil || edge != nil {
			t.Fatalf("canceled pass on %d nodes, %d edges gave (%d node, %d edge sums, %v), want no sums and ErrCanceled",
				g.NumNodes(), g.NumEdges(), len(node), len(edge), err)
		}
	}
}
