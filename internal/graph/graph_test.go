package graph

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// pathGraph builds 0-1-2-...-(n-1) with unit weights.
func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(Node{})
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(Edge{U: i, V: i + 1, Weight: 1})
	}
	return g
}

// starGraph builds a hub-and-spoke graph with node 0 as hub.
func starGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(Node{})
	}
	for i := 1; i < n; i++ {
		g.AddEdge(Edge{U: 0, V: i, Weight: 1})
	}
	return g
}

// cycleGraph builds a ring of n nodes.
func cycleGraph(n int) *Graph {
	g := pathGraph(n)
	if n > 2 {
		g.AddEdge(Edge{U: n - 1, V: 0, Weight: 1})
	}
	return g
}

func randomConnectedGraph(t *testing.T, seed int64, n, extraEdges int) *Graph {
	t.Helper()
	r := rng.New(seed)
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(Node{X: r.Float64(), Y: r.Float64()})
	}
	// Random spanning tree first.
	perm := rng.Shuffle(r, n)
	for i := 1; i < n; i++ {
		u := perm[i]
		v := perm[r.Intn(i)]
		g.AddEdge(Edge{U: u, V: v, Weight: r.Float64() + 0.01})
	}
	for i := 0; i < extraEdges; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(Edge{U: u, V: v, Weight: r.Float64() + 0.01})
		}
	}
	return g
}

func TestAddNodeEdgeBasics(t *testing.T) {
	g := New(0)
	a := g.AddNode(Node{Label: "a"})
	b := g.AddNode(Node{Label: "b"})
	if a != 0 || b != 1 {
		t.Fatalf("node ids = %d,%d", a, b)
	}
	id := g.AddEdge(Edge{U: a, V: b, Weight: 2.5})
	if id != 0 {
		t.Fatalf("edge id = %d", id)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("counts = %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Fatal("degrees wrong after AddEdge")
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Fatal("HasEdge should be symmetric")
	}
	if g.FindEdge(a, b) != 0 {
		t.Fatal("FindEdge failed")
	}
	if g.FindEdge(0, 5) != -1 {
		t.Fatal("FindEdge out of range should be -1")
	}
	if g.Edge(id).Weight != 2.5 {
		t.Fatalf("edge weight = %v", g.Edge(id).Weight)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	g := New(1)
	g.AddNode(Node{})
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop should panic")
		}
	}()
	g.AddEdge(Edge{U: 0, V: 0})
}

func TestParallelEdgesAllowed(t *testing.T) {
	g := New(2)
	g.AddNode(Node{})
	g.AddNode(Node{})
	g.AddEdge(Edge{U: 0, V: 1, Weight: 1})
	g.AddEdge(Edge{U: 0, V: 1, Weight: 2})
	if g.NumEdges() != 2 {
		t.Fatal("parallel edges must be allowed")
	}
	if g.Degree(0) != 2 {
		t.Fatal("parallel edges count in degree")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := pathGraph(5)
	c := g.Clone()
	c.AddNode(Node{})
	c.AddEdge(Edge{U: 0, V: 5})
	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatal("Clone mutated original")
	}
	c.Edge(0).Weight = 99
	if g.Edge(0).Weight == 99 {
		t.Fatal("Clone shares edge storage")
	}
}

func TestBFSDistances(t *testing.T) {
	c := pathGraph(5).Freeze()
	ws := newWorkspace(c.NumNodes())
	c.BFS(ws, 0)
	for i := 0; i < 5; i++ {
		if ws.Hop[i] != int32(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, ws.Hop[i], i)
		}
	}
	if ws.Parent[0] != -1 || ws.Parent[4] != 3 {
		t.Fatal("BFS parents wrong")
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(3)
	g.AddNode(Node{})
	g.AddNode(Node{})
	g.AddNode(Node{})
	g.AddEdge(Edge{U: 0, V: 1})
	ws := newWorkspace(3)
	g.Freeze().BFS(ws, 0)
	if ws.Hop[2] != -1 {
		t.Fatal("unreachable node should have dist -1")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	for i := 0; i < 6; i++ {
		g.AddNode(Node{})
	}
	g.AddEdge(Edge{U: 0, V: 1})
	g.AddEdge(Edge{U: 2, V: 3})
	g.AddEdge(Edge{U: 3, V: 4})
	label, sizes := g.ConnectedComponents()
	if len(sizes) != 3 {
		t.Fatalf("got %d components, want 3", len(sizes))
	}
	if label[0] != label[1] || label[2] != label[3] || label[3] != label[4] {
		t.Fatal("component labels wrong")
	}
	if label[5] == label[0] || label[5] == label[2] {
		t.Fatal("isolated node merged into a component")
	}
	if got := largestComponent(g); got != 3 {
		t.Fatalf("largest component = %d, want 3", got)
	}
}

func TestIsTreeForest(t *testing.T) {
	if !pathGraph(5).IsTree() {
		t.Fatal("path is a tree")
	}
	if !starGraph(8).IsTree() {
		t.Fatal("star is a tree")
	}
	if cycleGraph(4).IsTree() {
		t.Fatal("cycle is not a tree")
	}
	if !pathGraph(5).IsForest() {
		t.Fatal("tree is a forest")
	}
	// Two disjoint paths: forest but not tree.
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(Node{})
	}
	g.AddEdge(Edge{U: 0, V: 1})
	g.AddEdge(Edge{U: 2, V: 3})
	if g.IsTree() {
		t.Fatal("disconnected graph is not a tree")
	}
	if !g.IsForest() {
		t.Fatal("disjoint paths form a forest")
	}
	if cycleGraph(5).IsForest() {
		t.Fatal("cycle is not a forest")
	}
	if (&Graph{}).IsTree() {
		t.Fatal("empty graph is not a tree")
	}
}

func TestHopDiameterAndEccentricity(t *testing.T) {
	g := pathGraph(7)
	if d := hopDiameter(g); d != 6 {
		t.Fatalf("path diameter = %d, want 6", d)
	}
	c := g.Freeze()
	if e := hopEccentricity(c, newWorkspace(c.NumNodes()), 3); e != 3 {
		t.Fatalf("center eccentricity = %d, want 3", e)
	}
	if d := hopDiameter(starGraph(10)); d != 2 {
		t.Fatalf("star diameter = %d, want 2", d)
	}
}

func TestLeaves(t *testing.T) {
	g := starGraph(5)
	leaves := g.Leaves()
	if len(leaves) != 4 {
		t.Fatalf("star has %d leaves, want 4", len(leaves))
	}
}

// csrDijkstra freezes g and returns a full CSR.DijkstraTo's distances
// and shortest-path tree from src.
func csrDijkstra(g *Graph, src int) (dist []float64, parent, parentEdge []int32) {
	c := g.Freeze()
	n := c.NumNodes()
	ws := newWorkspace(n)
	c.DijkstraTo(ws, src, nil)
	return ws.Dist[:n], ws.Parent[:n], ws.ParentEdge[:n]
}

func TestDijkstraSimple(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(Node{})
	}
	g.AddEdge(Edge{U: 0, V: 1, Weight: 1})
	g.AddEdge(Edge{U: 1, V: 2, Weight: 1})
	g.AddEdge(Edge{U: 0, V: 2, Weight: 5})
	g.AddEdge(Edge{U: 2, V: 3, Weight: 1})
	dist, parent, parentEdge := csrDijkstra(g, 0)
	if dist[2] != 2 {
		t.Fatalf("dist[2] = %v, want 2 (via node 1)", dist[2])
	}
	if dist[3] != 3 {
		t.Fatalf("dist[3] = %v, want 3", dist[3])
	}
	// The tree path 3 -> 2 -> 1 -> 0 over edges 3, 1, 0.
	wantParent := []int32{-1, 0, 1, 2}
	wantEdge := []int32{-1, 0, 1, 3}
	for v := range wantParent {
		if parent[v] != wantParent[v] || parentEdge[v] != wantEdge[v] {
			t.Fatalf("tree = %v / %v, want %v / %v", parent, parentEdge, wantParent, wantEdge)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(2)
	g.AddNode(Node{})
	g.AddNode(Node{})
	dist, parent, parentEdge := csrDijkstra(g, 0)
	if !math.IsInf(dist[1], 1) {
		t.Fatal("unreachable distance should be +Inf")
	}
	if parent[1] != -1 || parentEdge[1] != -1 {
		t.Fatalf("unreachable node has parent %d edge %d, want -1 -1", parent[1], parentEdge[1])
	}
}

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	g := randomConnectedGraph(t, 42, 200, 300)
	for i := range g.Edges() {
		g.Edge(i).Weight = 1
	}
	hop := adjacencyBFS(g, 0)
	dist, _, _ := csrDijkstra(g, 0)
	for v := range hop {
		if float64(hop[v]) != dist[v] {
			t.Fatalf("node %d: BFS=%d Dijkstra=%v", v, hop[v], dist[v])
		}
	}
}

// TestDijkstraNegativeWeightPanics checks that the target-bounded entry
// point keeps the heap fallback's panic on a negative weight, for a
// single target and for several.
func TestDijkstraNegativeWeightPanics(t *testing.T) {
	g := New(3)
	for i := 0; i < 3; i++ {
		g.AddNode(Node{})
	}
	g.AddEdge(Edge{U: 0, V: 1, Weight: -1})
	g.AddEdge(Edge{U: 1, V: 2, Weight: 1})
	c := g.Freeze()
	ws := newWorkspace(3)
	for _, targets := range [][]int{{2}, {1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("targets %v: negative weight should panic", targets)
				}
			}()
			c.DijkstraTo(ws, 0, targets)
		}()
	}
}

// primWeight is an independent MST oracle: Prim's algorithm from node 0,
// each step scanning every edge for the lightest one leaving the tree.
// g must be connected.
func primWeight(g *Graph) float64 {
	in := make([]bool, g.NumNodes())
	in[0] = true
	total := 0.0
	edges := g.Edges()
	for k := 1; k < g.NumNodes(); k++ {
		best := -1
		for i, e := range edges {
			if in[e.U] != in[e.V] && (best < 0 || e.Weight < edges[best].Weight) {
				best = i
			}
		}
		in[edges[best].U], in[edges[best].V] = true, true
		total += edges[best].Weight
	}
	return total
}

func TestMSTAgreement(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomConnectedGraph(t, seed, 100, 200)
		_, wk := g.KruskalMST()
		if wp := primWeight(g); math.Abs(wk-wp) > 1e-9 {
			t.Fatalf("seed %d: Kruskal %v != Prim %v", seed, wk, wp)
		}
	}
}

func TestMSTIsSpanningTree(t *testing.T) {
	g := randomConnectedGraph(t, 7, 80, 160)
	ids, _ := g.KruskalMST()
	if len(ids) != g.NumNodes()-1 {
		t.Fatalf("MST has %d edges, want %d", len(ids), g.NumNodes()-1)
	}
	// n-1 edges that close no cycle join all n nodes into one tree.
	uf := NewUnionFind(g.NumNodes())
	for _, id := range ids {
		e := g.Edge(id)
		if !uf.Union(e.U, e.V) {
			t.Fatal("MST contains a cycle")
		}
	}
}

func TestMSTMinimalityOnSmallGraphs(t *testing.T) {
	// Brute-force check on tiny random graphs: every spanning tree costs
	// at least the MST.
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := 5
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddNode(Node{})
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.AddEdge(Edge{U: u, V: v, Weight: float64(r.Intn(10) + 1)})
			}
		}
		_, best := g.KruskalMST()
		m := g.NumEdges()
		// Enumerate all edge subsets of size n-1.
		var rec func(start int, chosen []int)
		minCost := math.Inf(1)
		rec = func(start int, chosen []int) {
			if len(chosen) == n-1 {
				uf := NewUnionFind(n)
				cost := 0.0
				for _, id := range chosen {
					e := g.Edge(id)
					if !uf.Union(e.U, e.V) {
						return
					}
					cost += e.Weight
				}
				if cost < minCost { // n-1 acyclic edges span the n nodes
					minCost = cost
				}
				return
			}
			for i := start; i < m; i++ {
				rec(i+1, append(chosen, i))
			}
		}
		rec(0, nil)
		if math.Abs(best-minCost) > 1e-9 {
			t.Fatalf("trial %d: Kruskal %v, brute force %v", trial, best, minCost)
		}
	}
}

func TestEuclideanMST(t *testing.T) {
	r := rng.New(3)
	n := 60
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	pairs := EuclideanMST(xs, ys)
	if len(pairs) != n-1 {
		t.Fatalf("EuclideanMST returned %d edges, want %d", len(pairs), n-1)
	}
	// Compare weight against Kruskal on the complete graph.
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(Node{X: xs[i], Y: ys[i]})
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(Edge{U: u, V: v, Weight: math.Hypot(xs[u]-xs[v], ys[u]-ys[v])})
		}
	}
	_, want := g.KruskalMST()
	got := 0.0
	for _, p := range pairs {
		got += math.Hypot(xs[p[0]]-xs[p[1]], ys[p[0]]-ys[p[1]])
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("EuclideanMST weight %v, Kruskal %v", got, want)
	}
}

func TestUnionFindProperties(t *testing.T) {
	err := quick.Check(func(ops []uint16) bool {
		const n = 32
		uf := NewUnionFind(n)
		naive := make([]int, n)
		for i := range naive {
			naive[i] = i
		}
		naiveFind := func(x int) int {
			for naive[x] != x {
				x = naive[x]
			}
			return x
		}
		for _, op := range ops {
			a, b := int(op)%n, int(op>>8)%n
			uf.Union(a, b)
			ra, rb := naiveFind(a), naiveFind(b)
			if ra != rb {
				naive[ra] = rb
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (uf.Find(i) == uf.Find(j)) != (naiveFind(i) == naiveFind(j)) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBetweennessStar(t *testing.T) {
	g := starGraph(6) // hub 0, 5 spokes
	bc, ebc, err := g.Betweenness(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Hub lies on all C(5,2)=10 spoke pairs.
	if math.Abs(bc[0]-10) > 1e-9 {
		t.Fatalf("hub betweenness = %v, want 10", bc[0])
	}
	for i := 1; i < 6; i++ {
		if bc[i] != 0 {
			t.Fatalf("spoke %d betweenness = %v, want 0", i, bc[i])
		}
	}
	// A spoke edge carries its spoke's pairs with the hub and the 4
	// other spokes.
	for e, b := range ebc {
		if math.Abs(b-5) > 1e-9 {
			t.Fatalf("spoke edge %d betweenness = %v, want 5", e, b)
		}
	}
}

func TestBetweennessPath(t *testing.T) {
	g := pathGraph(5)
	bc, ebc, err := g.Betweenness(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Middle node 2 is on pairs (0,3),(0,4),(1,3),(1,4) = 4.
	if math.Abs(bc[2]-4) > 1e-9 {
		t.Fatalf("middle betweenness = %v, want 4", bc[2])
	}
	if bc[0] != 0 || bc[4] != 0 {
		t.Fatal("endpoints should have zero betweenness")
	}
	// Edge i joins nodes i and i+1: every pair with one end at or below
	// i and the other above it crosses it.
	for i, b := range ebc {
		if want := float64((i + 1) * (4 - i)); math.Abs(b-want) > 1e-9 {
			t.Fatalf("edge %d betweenness = %v, want %v", i, b, want)
		}
	}
}

func TestBridges(t *testing.T) {
	// Two triangles joined by one bridge edge.
	g := New(6)
	for i := 0; i < 6; i++ {
		g.AddNode(Node{})
	}
	g.AddEdge(Edge{U: 0, V: 1})
	g.AddEdge(Edge{U: 1, V: 2})
	g.AddEdge(Edge{U: 2, V: 0})
	bridgeID := g.AddEdge(Edge{U: 2, V: 3})
	g.AddEdge(Edge{U: 3, V: 4})
	g.AddEdge(Edge{U: 4, V: 5})
	g.AddEdge(Edge{U: 5, V: 3})
	bridges := g.BridgeEdges()
	if len(bridges) != 1 || bridges[0] != bridgeID {
		t.Fatalf("bridges = %v, want [%d]", bridges, bridgeID)
	}
}

func TestBridgesTreeAllBridges(t *testing.T) {
	g := pathGraph(10)
	if len(g.BridgeEdges()) != 9 {
		t.Fatal("every edge of a tree is a bridge")
	}
}

func TestBridgesParallelEdgesNotBridges(t *testing.T) {
	g := New(2)
	g.AddNode(Node{})
	g.AddNode(Node{})
	g.AddEdge(Edge{U: 0, V: 1})
	g.AddEdge(Edge{U: 0, V: 1})
	if len(g.BridgeEdges()) != 0 {
		t.Fatal("parallel edges are not bridges")
	}
}

func TestTwoEdgeConnected(t *testing.T) {
	if !cycleGraph(5).IsTwoEdgeConnected() {
		t.Fatal("cycle is 2-edge-connected")
	}
	if pathGraph(5).IsTwoEdgeConnected() {
		t.Fatal("path is not 2-edge-connected")
	}
	if (&Graph{}).IsTwoEdgeConnected() {
		t.Fatal("empty graph is not 2-edge-connected")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := cycleGraph(6)
	sub, orig := inducedSubgraphFromSorted(g, []int{0, 1, 2})
	if sub.NumNodes() != 3 {
		t.Fatalf("subgraph nodes = %d, want 3", sub.NumNodes())
	}
	if sub.NumEdges() != 2 { // 0-1, 1-2 survive; 5-0 and 2-3 cut
		t.Fatalf("subgraph edges = %d, want 2", sub.NumEdges())
	}
	if len(orig) != 3 || orig[0] != 0 || orig[2] != 2 {
		t.Fatalf("orig mapping = %v", orig)
	}
}

func TestRemoveNodes(t *testing.T) {
	g := starGraph(6)
	sub, _ := removeNodes(g, []int{0}) // remove hub
	if sub.NumNodes() != 5 || sub.NumEdges() != 0 {
		t.Fatalf("after hub removal: %d nodes %d edges", sub.NumNodes(), sub.NumEdges())
	}
}

func TestNodeKindString(t *testing.T) {
	kinds := []NodeKind{KindUnknown, KindCore, KindPOP, KindConc, KindCustomer, KindPeering}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has bad/duplicate string %q", k, s)
		}
		seen[s] = true
	}
}

func TestEuclideanWeights(t *testing.T) {
	g := New(2)
	g.AddNode(Node{X: 0, Y: 0})
	g.AddNode(Node{X: 3, Y: 4})
	g.AddEdge(Edge{U: 0, V: 1})
	g.EuclideanWeights()
	if g.Edge(0).Weight != 5 {
		t.Fatalf("weight = %v, want 5", g.Edge(0).Weight)
	}
}

func TestDegreesAndMaxDegree(t *testing.T) {
	g := starGraph(7)
	d := g.Degrees()
	if d[0] != 6 {
		t.Fatalf("hub degree = %d", d[0])
	}
	if g.MaxDegree() != 6 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
}
