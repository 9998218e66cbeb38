package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// randomTestGraph builds a connected-ish weighted graph with some parallel
// edges, exercising every CSR code path.
func randomTestGraph(n, extraEdges int, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(Node{X: r.Float64(), Y: r.Float64()})
	}
	// Random spanning tree keeps most of the graph connected.
	for i := 1; i < n; i++ {
		j := r.Intn(i)
		g.AddEdge(Edge{U: i, V: j, Weight: 0.1 + r.Float64(), Cable: -1})
	}
	for k := 0; k < extraEdges; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		g.AddEdge(Edge{U: u, V: v, Weight: 0.1 + r.Float64(), Cable: -1})
	}
	return g
}

// heapDijkstra is an independent distance oracle for the CSR kernels: a
// container/heap Dijkstra over the builder graph's adjacency lists.
func heapDijkstra(g *Graph, src int) []float64 {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	pq := &distHeap{{node: src}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		g.Neighbors(it.node, func(v, e int) {
			if nd := it.dist + g.Edge(e).Weight; nd < dist[v] {
				dist[v] = nd
				heap.Push(pq, distItem{node: v, dist: nd})
			}
		})
	}
	return dist
}

type distItem struct {
	node int
	dist float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// largestComponent is the size of g's largest connected component (0
// for the empty graph), the oracle the masked component kernels are
// pinned to.
func largestComponent(g *Graph) int {
	_, sizes := g.ConnectedComponents()
	best := 0
	for _, s := range sizes {
		best = max(best, s)
	}
	return best
}

func TestCSRDijkstraMatchesGraph(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := randomTestGraph(120, 200, seed)
		c := g.Freeze()
		ws := NewWorkspace(g.NumNodes())
		for src := 0; src < g.NumNodes(); src += 7 {
			dist := heapDijkstra(g, src)
			c.Dijkstra(ws, src)
			for v := range dist {
				if dist[v] != ws.Dist[v] {
					t.Fatalf("seed %d src %d: dist[%d] = %v (graph) vs %v (csr)", seed, src, v, dist[v], ws.Dist[v])
				}
				// Parents can differ on equal-weight ties, but must form a
				// consistent shortest-path tree.
				p, pe := ws.Parent[v], ws.ParentEdge[v]
				if v == src || math.IsInf(ws.Dist[v], 1) {
					if p != -1 || pe != -1 {
						t.Fatalf("src/unreachable node %d has parent %d edge %d", v, p, pe)
					}
					continue
				}
				e := g.Edge(int(pe))
				if e.Other(int(p)) != v {
					t.Fatalf("parent edge %d does not connect %d to %d", pe, p, v)
				}
				if got := ws.Dist[p] + e.Weight; math.Abs(got-ws.Dist[v]) > 1e-12 {
					t.Fatalf("tree inconsistency at %d: parent dist %v + w %v != %v", v, ws.Dist[p], e.Weight, ws.Dist[v])
				}
			}
		}
	}
}

func TestCSRBFSMatchesGraph(t *testing.T) {
	g := randomTestGraph(150, 100, 4)
	c := g.Freeze()
	ws := NewWorkspace(g.NumNodes())
	for src := 0; src < g.NumNodes(); src += 11 {
		dist, _ := g.BFS(src)
		c.BFS(ws, src)
		for v, d := range dist {
			if int32(d) != ws.Hop[v] {
				t.Fatalf("src %d: hop[%d] = %d (graph) vs %d (csr)", src, v, d, ws.Hop[v])
			}
		}
	}
}

func TestCSREccentricityMatchesGraph(t *testing.T) {
	g := randomTestGraph(80, 60, 5)
	c := g.Freeze()
	ws := NewWorkspace(g.NumNodes())
	for src := 0; src < g.NumNodes(); src += 9 {
		if got, want := c.Eccentricity(ws, src), g.Eccentricity(src); got != want {
			t.Fatalf("src %d: hop eccentricity %d vs %d", src, got, want)
		}
	}
}

func TestLargestComponentMaskedMatchesRemoveNodes(t *testing.T) {
	g := randomTestGraph(100, 40, 6)
	c := g.Freeze()
	ws := NewWorkspace(g.NumNodes())
	r := rand.New(rand.NewSource(7))
	removed := make([]bool, g.NumNodes())
	var removedIDs []int
	// Incrementally remove nodes, comparing the masked kernel against the
	// materialized subgraph at each step.
	for len(removedIDs) < 90 {
		u := r.Intn(g.NumNodes())
		if removed[u] {
			continue
		}
		removed[u] = true
		removedIDs = append(removedIDs, u)
		sub, _ := g.RemoveNodes(removedIDs)
		want := largestComponent(sub)
		if got := c.LargestComponentMasked(ws, removed, nil); got != want {
			t.Fatalf("after removing %d nodes: masked LCC %d vs subgraph LCC %d", len(removedIDs), got, want)
		}
	}
	// Everything removed: empty mask result.
	for u := range removed {
		removed[u] = true
	}
	if got := c.LargestComponentMasked(ws, removed, nil); got != 0 {
		t.Fatalf("all-removed LCC = %d, want 0", got)
	}
}

func TestLargestComponentEdgeMaskedMatchesSubgraph(t *testing.T) {
	g := randomTestGraph(80, 30, 9)
	c := g.Freeze()
	ws := NewWorkspace(g.NumNodes())
	r := rand.New(rand.NewSource(11))
	removedEdge := make([]bool, g.NumEdges())
	removedCount := 0
	// Incrementally remove edges, comparing the edge-masked kernel
	// against a materialized copy without those edges at each step.
	for removedCount < g.NumEdges() {
		e := r.Intn(g.NumEdges())
		if removedEdge[e] {
			continue
		}
		removedEdge[e] = true
		removedCount++
		sub := New(g.NumNodes())
		for i := 0; i < g.NumNodes(); i++ {
			sub.AddNode(*g.Node(i))
		}
		for i, edge := range g.Edges() {
			if !removedEdge[i] {
				sub.AddEdge(edge)
			}
		}
		if got, want := c.LargestComponentMasked(ws, nil, removedEdge), largestComponent(sub); got != want {
			t.Fatalf("after removing %d edges: edge-masked LCC %d vs subgraph LCC %d", removedCount, got, want)
		}
	}
	// A short (or nil) mask treats the tail as present.
	if got, want := c.LargestComponentMasked(ws, nil, nil), largestComponent(g); got != want {
		t.Fatalf("nil edge mask LCC = %d, want %d", got, want)
	}
}

func TestCSREmptyGraph(t *testing.T) {
	g := New(0)
	c := g.Freeze()
	if c.NumNodes() != 0 || c.NumEdges() != 0 {
		t.Fatalf("empty CSR has %d nodes %d edges", c.NumNodes(), c.NumEdges())
	}
	ws := NewWorkspace(0)
	c.Dijkstra(ws, 0)
	c.BFS(ws, 0)
	if got := c.LargestComponentMasked(ws, nil, nil); got != 0 {
		t.Fatalf("empty LCC = %d", got)
	}
}

func TestWorkspacePoolReuse(t *testing.T) {
	g := randomTestGraph(60, 30, 8)
	c := g.Freeze()
	ws := GetWorkspace(g.NumNodes())
	c.Dijkstra(ws, 0)
	d0 := ws.Dist[5]
	ws.Release()
	ws2 := GetWorkspace(g.NumNodes())
	c.Dijkstra(ws2, 0)
	if ws2.Dist[5] != d0 {
		t.Fatalf("pooled workspace result differs: %v vs %v", ws2.Dist[5], d0)
	}
	// Growing to a larger graph must re-reserve cleanly.
	big := randomTestGraph(500, 100, 9)
	bc := big.Freeze()
	bc.BFS(ws2, 0)
	reach := 0
	for _, h := range ws2.Hop[:big.NumNodes()] {
		if h >= 0 {
			reach++
		}
	}
	if reach != big.NumNodes() {
		t.Fatalf("BFS on grown workspace reached %d/%d nodes", reach, big.NumNodes())
	}
	ws2.Release()
}

func TestWorkspaceEpochWraparound(t *testing.T) {
	g := randomTestGraph(20, 10, 10)
	c := g.Freeze()
	ws := NewWorkspace(g.NumNodes())
	ws.epoch = ^uint32(0) - 1 // force a wraparound within two calls
	removed := make([]bool, g.NumNodes())
	a := c.LargestComponentMasked(ws, removed, nil)
	b := c.LargestComponentMasked(ws, removed, nil)
	d := c.LargestComponentMasked(ws, removed, nil)
	if a != b || b != d {
		t.Fatalf("LCC unstable across epoch wraparound: %d %d %d", a, b, d)
	}
}

func TestHasEdgeBoundsChecked(t *testing.T) {
	g := New(3)
	for i := 0; i < 3; i++ {
		g.AddNode(Node{})
	}
	g.AddEdge(Edge{U: 0, V: 1, Weight: 1})
	cases := []struct{ u, v int }{{-1, 0}, {0, -1}, {3, 0}, {0, 3}, {-5, 99}}
	for _, tc := range cases {
		if g.HasEdge(tc.u, tc.v) {
			t.Fatalf("HasEdge(%d,%d) = true for out-of-range ids", tc.u, tc.v)
		}
		if got := g.FindEdge(tc.u, tc.v); got != -1 {
			t.Fatalf("FindEdge(%d,%d) = %d, want -1", tc.u, tc.v, got)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge misses an existing edge")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("HasEdge reports a missing edge")
	}
	if g.FindEdge(1, 0) != 0 {
		t.Fatalf("FindEdge(1,0) = %d, want 0", g.FindEdge(1, 0))
	}
}

func TestCSRDijkstraNegativeWeightPanics(t *testing.T) {
	g := New(2)
	g.AddNode(Node{})
	g.AddNode(Node{})
	g.AddEdge(Edge{U: 0, V: 1, Weight: -1})
	c := g.Freeze()
	ws := NewWorkspace(2)
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	c.Dijkstra(ws, 0)
}

func TestLargestComponentMixedMaskedMatchesSubgraph(t *testing.T) {
	g := randomTestGraph(90, 50, 13)
	c := g.Freeze()
	ws := NewWorkspace(g.NumNodes())
	r := rand.New(rand.NewSource(17))
	removedNode := make([]bool, g.NumNodes())
	removedEdge := make([]bool, g.NumEdges())
	var removedIDs []int
	// Alternately remove nodes and edges, comparing the combined-mask
	// kernel against a materialized subgraph at each step: surviving
	// nodes, surviving edges between them.
	for step := 0; step < 60; step++ {
		if step%2 == 0 {
			removedEdge[r.Intn(g.NumEdges())] = true
		} else {
			u := r.Intn(g.NumNodes())
			if !removedNode[u] {
				removedNode[u] = true
				removedIDs = append(removedIDs, u)
			}
		}
		sub := New(g.NumNodes())
		id := make([]int, g.NumNodes())
		for i := 0; i < g.NumNodes(); i++ {
			id[i] = -1
			if !removedNode[i] {
				id[i] = sub.AddNode(*g.Node(i))
			}
		}
		for i, edge := range g.Edges() {
			if !removedEdge[i] && id[edge.U] >= 0 && id[edge.V] >= 0 {
				sub.AddEdge(Edge{U: id[edge.U], V: id[edge.V], Weight: edge.Weight, Cable: -1})
			}
		}
		want := largestComponent(sub)
		if got := c.LargestComponentMasked(ws, removedNode, removedEdge); got != want {
			t.Fatalf("step %d: masked LCC %d vs subgraph LCC %d", step, got, want)
		}
		// A nil mask, and the missing tail of a short one, read as
		// present: the traversal that skips edge ids must agree with an
		// all-present edge mask, and a halved edge mask with its
		// full-length copy whose second half is cleared.
		m := g.NumEdges()
		if got, want := c.LargestComponentMasked(ws, removedNode, nil), c.LargestComponentMasked(ws, removedNode, make([]bool, m)); got != want {
			t.Fatalf("step %d: nil edge mask %d vs all-present mask %d", step, got, want)
		}
		half := append(append([]bool(nil), removedEdge[:m/2]...), make([]bool, m-m/2)...)
		if got, want := c.LargestComponentMasked(ws, removedNode, removedEdge[:m/2]), c.LargestComponentMasked(ws, removedNode, half); got != want {
			t.Fatalf("step %d: short edge mask %d vs cleared tail %d", step, got, want)
		}
	}
	if got, want := c.LargestComponentMasked(ws, nil, nil), largestComponent(g); got != want {
		t.Fatalf("nil masks LCC = %d, want %d", got, want)
	}
}
