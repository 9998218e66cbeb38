package graph

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomGraphFromSeed builds a connected weighted graph deterministically
// from a seed, for property tests.
func randomGraphFromSeed(seed int64, n, extra int) *Graph {
	r := rng.New(seed)
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(Node{X: r.Float64(), Y: r.Float64()})
	}
	perm := rng.Shuffle(r, n)
	for i := 1; i < n; i++ {
		g.AddEdge(Edge{U: perm[i], V: perm[r.Intn(i)], Weight: r.Float64() + 0.01})
	}
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(Edge{U: u, V: v, Weight: r.Float64() + 0.01})
		}
	}
	return g
}

func TestPropertyDijkstraTriangle(t *testing.T) {
	// d(s,v) <= d(s,u) + w(u,v) for every edge (u,v).
	err := quick.Check(func(seed int64) bool {
		g := randomGraphFromSeed(seed, 60, 120)
		dist, _, _ := csrDijkstra(g, 0)
		for _, e := range g.Edges() {
			if dist[e.V] > dist[e.U]+e.Weight+1e-9 {
				return false
			}
			if dist[e.U] > dist[e.V]+e.Weight+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDijkstraSymmetry(t *testing.T) {
	// On an undirected graph, d(a,b) == d(b,a).
	err := quick.Check(func(seed int64) bool {
		g := randomGraphFromSeed(seed, 40, 60)
		c := g.Freeze()
		ref, ws := NewWorkspace(c.NumNodes()), NewWorkspace(c.NumNodes())
		c.Dijkstra(ref, 0)
		for v := 1; v < c.NumNodes(); v++ {
			c.Dijkstra(ws, v)
			if math.Abs(ref.Dist[v]-ws.Dist[0]) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 10})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMSTWeightLEQAnySpanningSubset(t *testing.T) {
	// MST weight <= total weight of any connected spanning subgraph.
	err := quick.Check(func(seed int64) bool {
		g := randomGraphFromSeed(seed, 30, 60)
		_, mst := g.KruskalMST()
		total := 0.0
		for _, e := range g.Edges() {
			total += e.Weight
		}
		return mst <= total+1e-9
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBetweennessNonNegativeAndBounded(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		g := randomGraphFromSeed(seed, 30, 40)
		bc := g.Betweenness()
		n := float64(g.NumNodes())
		bound := (n - 1) * (n - 2) / 2
		for _, b := range bc {
			if b < -1e-9 || b > bound+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBetweennessSumPath(t *testing.T) {
	// On a path of n nodes, total betweenness equals the number of
	// intermediate-node pair crossings: sum over pairs (i,j) of
	// (j - i - 1).
	for n := 3; n <= 12; n++ {
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddNode(Node{})
		}
		for i := 0; i+1 < n; i++ {
			g.AddEdge(Edge{U: i, V: i + 1, Weight: 1})
		}
		bc := g.Betweenness()
		total := 0.0
		for _, b := range bc {
			total += b
		}
		want := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want += float64(j - i - 1)
			}
		}
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("n=%d: total betweenness %v, want %v", n, total, want)
		}
	}
}

func TestPropertyBridgesVanishOnCycleClosure(t *testing.T) {
	// A path has n-1 bridges; closing it into a cycle leaves zero.
	for n := 3; n <= 20; n++ {
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddNode(Node{})
		}
		for i := 0; i+1 < n; i++ {
			g.AddEdge(Edge{U: i, V: i + 1, Weight: 1})
		}
		if len(g.BridgeEdges()) != n-1 {
			t.Fatalf("path n=%d: wrong bridge count", n)
		}
		g.AddEdge(Edge{U: n - 1, V: 0, Weight: 1})
		if len(g.BridgeEdges()) != 0 {
			t.Fatalf("cycle n=%d: bridges remain", n)
		}
	}
}

func TestPropertyComponentsPartition(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		n := 30
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddNode(Node{})
		}
		for i := 0; i < 25; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(Edge{U: u, V: v, Weight: 1})
			}
		}
		label, sizes := g.ConnectedComponents()
		total := 0
		for _, s := range sizes {
			if s <= 0 {
				return false
			}
			total += s
		}
		if total != n {
			return false
		}
		// Every edge joins same-labelled nodes.
		for _, e := range g.Edges() {
			if label[e.U] != label[e.V] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraphFromSorted(t *testing.T) {
	g := randomGraphFromSeed(2, 12, 20)
	sub, orig := g.InducedSubgraphFromSorted([]int{0, 3, 5, 9})
	if sub.NumNodes() != 4 || len(orig) != 4 {
		t.Fatalf("subgraph size %d", sub.NumNodes())
	}
	// Edge count matches a manual count.
	want := 0
	keep := map[int]bool{0: true, 3: true, 5: true, 9: true}
	for _, e := range g.Edges() {
		if keep[e.U] && keep[e.V] {
			want++
		}
	}
	if sub.NumEdges() != want {
		t.Fatalf("subgraph edges %d, want %d", sub.NumEdges(), want)
	}
}
