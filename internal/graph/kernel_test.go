package graph

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// forceBottomUp are bfs switching parameters that push the traversal
// bottom-up at the first level and keep it there: a huge alpha makes
// mf*alpha > mu immediately, and the same huge beta keeps nf*beta >= n.
const forceBottomUp = 1 << 20

// weightedTestGraph builds graphs across the weight regimes that select
// between the bucketed and heap Dijkstra kernels.
func weightedTestGraph(n, extraEdges int, seed int64, weight func(r *rand.Rand) float64) *Graph {
	r := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(Node{X: r.Float64(), Y: r.Float64()})
	}
	for i := 1; i < n; i++ {
		g.AddEdge(Edge{U: i, V: r.Intn(i), Weight: weight(r), Cable: -1})
	}
	for k := 0; k < extraEdges; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		g.AddEdge(Edge{U: u, V: v, Weight: weight(r), Cable: -1})
	}
	return g
}

func checkBFSEqual(t *testing.T, label string, n int, ref, got *Workspace) {
	t.Helper()
	for v := 0; v < n; v++ {
		if ref.Hop[v] != got.Hop[v] {
			t.Fatalf("%s: hop[%d] = %d, reference %d", label, v, got.Hop[v], ref.Hop[v])
		}
		if ref.Parent[v] != got.Parent[v] {
			t.Fatalf("%s: parent[%d] = %d, reference %d (hop %d)", label, v, got.Parent[v], ref.Parent[v], ref.Hop[v])
		}
	}
}

// TestBFSDirectionSwitchingParity pins every switching regime of the
// direction-optimizing BFS — pure top-down, forced all-bottom-up, an
// aggressive mixed schedule, and the default thresholds — bit-for-bit to
// the reference kernel, on every source of several random graphs.
func TestBFSDirectionSwitchingParity(t *testing.T) {
	regimes := []struct {
		name        string
		alpha, beta int
		wantBottom  bool
	}{
		{"bottom-up", forceBottomUp, forceBottomUp, true},
		{"mixed", 2, 4, true},
		{"default", bfsAlpha, bfsBeta, false}, // bottom-up engagement depends on shape
	}
	for _, seed := range []int64{1, 2} {
		g := randomTestGraph(300, 700, seed)
		c := g.Freeze()
		ref := NewWorkspace(c.NumNodes())
		ws := NewWorkspace(c.NumNodes())
		for src := 0; src < c.NumNodes(); src += 13 {
			c.BFSTopDown(ref, src)
			if ref.BFSBottomUpLevels != 0 {
				t.Fatalf("BFSTopDown reports %d bottom-up levels", ref.BFSBottomUpLevels)
			}
			for _, reg := range regimes {
				c.bfs(ws, src, reg.alpha, reg.beta, 1)
				if reg.wantBottom && ws.BFSBottomUpLevels == 0 {
					t.Fatalf("seed %d src %d regime %s: no bottom-up level ran", seed, src, reg.name)
				}
				checkBFSEqual(t, reg.name, c.NumNodes(), ref, ws)
			}
			c.BFS(ws, src)
			checkBFSEqual(t, "exported", c.NumNodes(), ref, ws)
		}
	}
}

// TestParallelBottomUpParity pins the sharded parallel bottom-up level
// bit-identical to the serial kernel across worker counts, with the
// bottom-up regime forced so every level exercises the parallel path.
func TestParallelBottomUpParity(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g := randomTestGraph(400, 900, seed)
		c := g.Freeze()
		ref := NewWorkspace(c.NumNodes())
		ws := NewWorkspace(c.NumNodes())
		for src := 0; src < c.NumNodes(); src += 13 {
			c.bfs(ref, src, forceBottomUp, forceBottomUp, 1)
			if ref.BFSBottomUpLevels == 0 {
				t.Fatalf("seed %d src %d: forced regime ran no bottom-up level", seed, src)
			}
			for _, workers := range []int{2, 4, 8} {
				c.bfs(ws, src, forceBottomUp, forceBottomUp, workers)
				checkBFSEqual(t, "parallel", c.NumNodes(), ref, ws)
				if ws.BFSBottomUpLevels != ref.BFSBottomUpLevels {
					t.Fatalf("seed %d src %d workers %d: %d bottom-up levels, serial %d",
						seed, src, workers, ws.BFSBottomUpLevels, ref.BFSBottomUpLevels)
				}
			}
			c.BFSParallel(ws, src, 4)
			c.BFS(ref, src)
			checkBFSEqual(t, "exported-parallel", c.NumNodes(), ref, ws)
		}
	}
}

// TestBFSParentMinIDContract checks the documented tie-break directly:
// Parent[v] must be the smallest-id neighbour one hop closer to the
// source, independent of which kernel or direction produced it.
func TestBFSParentMinIDContract(t *testing.T) {
	g := randomTestGraph(200, 500, 3)
	c := g.Freeze()
	n := c.NumNodes()
	ws := NewWorkspace(n)
	for _, kernel := range []struct {
		name string
		run  func(src int)
	}{
		{"top-down", func(src int) { c.BFSTopDown(ws, src) }},
		{"bottom-up", func(src int) { c.bfs(ws, src, forceBottomUp, forceBottomUp, 1) }},
		{"dir-opt", func(src int) { c.BFS(ws, src) }},
	} {
		for src := 0; src < n; src += 17 {
			kernel.run(src)
			for v := 0; v < n; v++ {
				if ws.Hop[v] <= 0 {
					continue
				}
				want := int32(-1)
				c.Neighbors(v, func(u, _ int, _ float64) {
					if ws.Hop[u] == ws.Hop[v]-1 && (want < 0 || int32(u) < want) {
						want = int32(u)
					}
				})
				if ws.Parent[v] != want {
					t.Fatalf("%s src %d: parent[%d] = %d, want min-id %d", kernel.name, src, v, ws.Parent[v], want)
				}
			}
		}
	}
}

// dijkstraRegimes are the weight regimes that stress bucket binning:
// generic uniform, unit weights (all entries land in one bucket edge), a
// few exact zero weights (same-bucket re-relaxation), and tiny weights
// against one huge outlier (everything bins into bucket 0).
var dijkstraRegimes = []struct {
	name   string
	weight func(r *rand.Rand) float64
}{
	{"uniform", func(r *rand.Rand) float64 { return 0.1 + r.Float64() }},
	{"unit", func(*rand.Rand) float64 { return 1 }},
	{"sparse-zeros", func(r *rand.Rand) float64 {
		if r.Intn(4) == 0 {
			return 0
		}
		return r.Float64()
	}},
	{"huge-outlier", func(r *rand.Rand) float64 {
		if r.Intn(64) == 0 {
			return 1e9
		}
		return 1e-6 * (1 + r.Float64())
	}},
}

// regimeGraph builds a 150-node graph of one weight regime plus heavy
// parallel edges with distinct weights and ids between the same
// endpoints, to exercise the (parent, edge) tie-break.
func regimeGraph(seed int64, weight func(r *rand.Rand) float64) *Graph {
	g := weightedTestGraph(150, 400, seed, weight)
	r := rand.New(rand.NewSource(seed + 100))
	for k := 0; k < 60; k++ {
		u, v := r.Intn(150), r.Intn(150)
		if u == v {
			continue
		}
		g.AddEdge(Edge{U: u, V: v, Weight: weight(r), Cable: -1})
	}
	return g
}

// TestDijkstraBucketMatchesHeap pins the bucketed kernel bit-for-bit to
// the heap reference — distances, parents, and parent edges — across
// the bucket-binning weight regimes.
func TestDijkstraBucketMatchesHeap(t *testing.T) {
	for _, reg := range dijkstraRegimes {
		for _, seed := range []int64{1, 2} {
			c := regimeGraph(seed, reg.weight).Freeze()
			if !c.bucketOK {
				t.Fatalf("regime %s: expected bucketOK snapshot", reg.name)
			}
			ref := NewWorkspace(c.NumNodes())
			ws := NewWorkspace(c.NumNodes())
			for src := 0; src < c.NumNodes(); src += 11 {
				c.DijkstraHeap(ref, src)
				c.dijkstraBucket(ws, src, nil)
				for v := 0; v < c.NumNodes(); v++ {
					if ref.Dist[v] != ws.Dist[v] {
						t.Fatalf("regime %s seed %d src %d: dist[%d] = %v bucket vs %v heap", reg.name, seed, src, v, ws.Dist[v], ref.Dist[v])
					}
					if ref.Parent[v] != ws.Parent[v] || ref.ParentEdge[v] != ws.ParentEdge[v] {
						t.Fatalf("regime %s seed %d src %d: tree at %d = (%d,%d) bucket vs (%d,%d) heap",
							reg.name, seed, src, v, ws.Parent[v], ws.ParentEdge[v], ref.Parent[v], ref.ParentEdge[v])
					}
				}
			}
		}
	}
}

// TestDijkstraBucketGate pins the Freeze-time bucketOK classification:
// snapshots whose weights cannot be binned (all zero, an infinite
// weight, a NaN, a negative weight, or no edges at all) must fall back
// to the heap kernel, and Dijkstra and DijkstraTo, with one target or
// several, must still terminate on them and run in full.
func TestDijkstraBucketGate(t *testing.T) {
	mk := func(ws ...float64) *CSR {
		g := New(len(ws) + 1)
		for i := 0; i <= len(ws); i++ {
			g.AddNode(Node{})
		}
		for i, w := range ws {
			g.AddEdge(Edge{U: i, V: i + 1, Weight: w, Cable: -1})
		}
		return g.Freeze()
	}
	cases := []struct {
		name string
		c    *CSR
		ok   bool
	}{
		{"positive", mk(1, 2, 0.5), true},
		{"with-zero", mk(0, 1), true},
		{"all-zero", mk(0, 0), false},
		{"edgeless", mk(), false},
		{"inf", mk(1, math.Inf(1)), false},
		{"nan", mk(1, math.NaN()), false},
		{"negative", mk(1, -1), false},
		// maxW/bucketSpan underflows to 0 for a subnormal this small —
		// found by FuzzDijkstraBucketGate: the bucket index would be
		// nd/0 = +Inf. A tiny but normal maxW still bins fine.
		{"subnormal", mk(5e-324), false},
		{"tiny-normal", mk(1e-300), true},
	}
	for _, tc := range cases {
		if tc.c.bucketOK != tc.ok {
			t.Fatalf("%s: bucketOK = %v, want %v", tc.name, tc.c.bucketOK, tc.ok)
		}
	}
	// The fallback still terminates and matches the heap on the
	// non-negative disqualified shapes, bounded or not. ("negative" is
	// excluded: the heap kernel's panic on negative weights is its own
	// contract.)
	for _, tc := range cases {
		if tc.ok || tc.name == "negative" {
			continue
		}
		n := tc.c.NumNodes()
		ws := NewWorkspace(n)
		ref := NewWorkspace(n)
		tc.c.DijkstraHeap(ref, 0)
		for _, targets := range [][]int{nil, {n - 1}, {0, n - 1}} {
			tc.c.DijkstraTo(ws, 0, targets)
			for v := 0; v < n; v++ {
				same := ref.Dist[v] == ws.Dist[v] ||
					(math.IsNaN(ref.Dist[v]) && math.IsNaN(ws.Dist[v]))
				if !same || ref.Parent[v] != ws.Parent[v] {
					t.Fatalf("%s targets %v: fallback node %d = (%v, %d), heap (%v, %d)",
						tc.name, targets, v, ws.Dist[v], ws.Parent[v], ref.Dist[v], ref.Parent[v])
				}
			}
		}
	}
}

// FuzzDijkstraBucketGate drives the Freeze-time bucketOK gate with
// arbitrary weight bit patterns (every 8 fuzz bytes decode to one
// float64, so NaNs, infinities, subnormals, and negative zeros all
// occur naturally). Invariants: Freeze never panics; bucketOK is
// exactly the documented predicate (no NaN, minW >= 0, 0 < maxW < Inf);
// and on every non-negative input Dijkstra terminates and matches the
// heap reference bit-for-bit.
func FuzzDijkstraBucketGate(f *testing.F) {
	enc := func(ws ...float64) []byte {
		b := make([]byte, 0, 8*len(ws))
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
		return b
	}
	f.Add(enc(1, 2, 0.5))
	f.Add(enc(0, 1))
	f.Add(enc(0, 0))
	f.Add(enc())
	f.Add(enc(1, math.Inf(1)))
	f.Add(enc(1, math.NaN()))
	f.Add(enc(1, -1))
	f.Add(enc(math.Copysign(0, -1), 1e-300, 1e300))
	f.Fuzz(func(t *testing.T, data []byte) {
		var weights []float64
		for len(data) >= 8 && len(weights) < 64 {
			weights = append(weights, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
			data = data[8:]
		}
		g := New(len(weights) + 1)
		for i := 0; i <= len(weights); i++ {
			g.AddNode(Node{})
		}
		for i, w := range weights {
			g.AddEdge(Edge{U: i, V: i + 1, Weight: w, Cable: -1})
			if i%3 == 0 && i+2 <= len(weights) {
				g.AddEdge(Edge{U: i, V: i + 2, Weight: w, Cable: -1}) // shortcut edges vary the shape
			}
		}
		c := g.Freeze()

		nan, neg := false, false
		minW, maxW := math.Inf(1), math.Inf(-1)
		for _, w := range c.weight {
			if math.IsNaN(w) {
				nan = true
			}
			if w < 0 {
				neg = true
			}
			minW = math.Min(minW, w)
			maxW = math.Max(maxW, w)
		}
		wantOK := !nan && len(c.weight) > 0 && minW >= 0 && maxW > 0 &&
			!math.IsInf(maxW, 1) && maxW/bucketSpan > 0
		if c.bucketOK != wantOK {
			t.Fatalf("bucketOK = %v, want %v (weights %v)", c.bucketOK, wantOK, weights)
		}
		if nan || neg {
			// The heap fallback's own negative-weight panic is a documented
			// contract, and NaN comparisons make "shortest" ill-defined;
			// the gate's job — classifying them out of the bucket kernel —
			// is verified above.
			return
		}
		n := c.NumNodes()
		ws := NewWorkspace(n)
		ref := NewWorkspace(n)
		for src := 0; src < n; src += 1 + n/4 {
			c.DijkstraHeap(ref, src)
			c.Dijkstra(ws, src)
			for v := 0; v < n; v++ {
				if ws.Dist[v] != ref.Dist[v] || ws.Parent[v] != ref.Parent[v] || ws.ParentEdge[v] != ref.ParentEdge[v] {
					t.Fatalf("Dijkstra src %d node %d: (%v,%d,%d) vs heap (%v,%d,%d)",
						src, v, ws.Dist[v], ws.Parent[v], ws.ParentEdge[v], ref.Dist[v], ref.Parent[v], ref.ParentEdge[v])
				}
			}
		}
	})
}

// TestCheckCSRBoundsPanics pins the documented int32 overflow guard at
// Freeze without materializing a 2^31-node graph.
func TestCheckCSRBoundsPanics(t *testing.T) {
	mustPanic := func(name, wantSub string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: guard did not panic", name)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, wantSub) {
				t.Fatalf("%s: panic %v does not mention %q", name, r, wantSub)
			}
		}()
		fn()
	}
	mustPanic("nodes", "nodes exceed", func() { checkCSRBounds(MaxCSRNodes+1, 0) })
	mustPanic("edges", "half-edges) exceed", func() { checkCSRBounds(10, MaxCSRHalfEdges/2+1) })
	checkCSRBounds(MaxCSRNodes, MaxCSRHalfEdges/2) // at the limit: no panic
	checkCSRBounds(0, 0)
}

// TestReserveIndependentCapacities is the regression test for the
// partial-growth hazard: a workspace whose Dist is already large but
// whose other buffers are short must still have every buffer grown.
func TestReserveIndependentCapacities(t *testing.T) {
	ws := &Workspace{Dist: make([]float64, 512)}
	ws.Reserve(512)
	if cap(ws.Hop) < 512 || cap(ws.Parent) < 512 || cap(ws.ParentEdge) < 512 {
		t.Fatalf("output buffers not grown: hop %d parent %d parentEdge %d", cap(ws.Hop), cap(ws.Parent), cap(ws.ParentEdge))
	}
	if cap(ws.queue) < 512 || cap(ws.heapNode) < 512 || cap(ws.heapDist) < 512 {
		t.Fatalf("scratch buffers not grown: queue %d heapNode %d heapDist %d", cap(ws.queue), cap(ws.heapNode), cap(ws.heapDist))
	}
	if len(ws.visited) < 512 {
		t.Fatalf("visited not grown: %d", len(ws.visited))
	}
	words := (512 + 63) / 64
	if len(ws.front) < words || len(ws.next) < words {
		t.Fatalf("bitsets not grown: front %d next %d (want >= %d words)", len(ws.front), len(ws.next), words)
	}
	// A grown-then-regrown workspace keeps epochs safe: stale visited
	// stamps never alias a fresh epoch.
	g := randomTestGraph(40, 20, 12)
	c := g.Freeze()
	removed := make([]bool, 40)
	a := c.LargestComponentMasked(ws, removed)
	ws.Reserve(2048)
	b := c.LargestComponentMasked(ws, removed)
	if a != b {
		t.Fatalf("LCC changed across Reserve growth: %d vs %d", a, b)
	}
}

// TestFreezeBFSNbrSorted checks the sorted BFS adjacency mirror: each
// row ascending, and a permutation of the insertion-ordered row.
func TestFreezeBFSNbrSorted(t *testing.T) {
	g := randomTestGraph(80, 300, 13)
	c := g.Freeze()
	for u := 0; u < c.NumNodes(); u++ {
		row := c.bfsNbr[c.rowStart[u]:c.rowStart[u+1]]
		if !slices.IsSorted(row) {
			t.Fatalf("bfsNbr row %d not sorted: %v", u, row)
		}
		want := append([]int32(nil), c.nbr[c.rowStart[u]:c.rowStart[u+1]]...)
		slices.Sort(want)
		if !slices.Equal(row, want) {
			t.Fatalf("bfsNbr row %d is not a permutation of nbr: %v vs %v", u, row, want)
		}
	}
}

// TestBFSSmallShapes runs every kernel over degenerate shapes — empty,
// single node, disconnected pair — under forced bottom-up parameters,
// and pins Dijkstra to the heap reference on the same shapes.
func TestBFSSmallShapes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5} {
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddNode(Node{})
		}
		if n >= 4 {
			g.AddEdge(Edge{U: 0, V: 1, Weight: 1, Cable: -1})
			g.AddEdge(Edge{U: 2, V: 3, Weight: 1, Cable: -1})
		}
		c := g.Freeze()
		ws := NewWorkspace(n)
		ref := NewWorkspace(n)
		for src := 0; src < n; src++ {
			c.BFSTopDown(ref, src)
			c.bfs(ws, src, forceBottomUp, forceBottomUp, 1)
			checkBFSEqual(t, "small", n, ref, ws)
			c.Dijkstra(ws, src)
			c.DijkstraHeap(ref, src)
			for v := 0; v < n; v++ {
				if ws.Dist[v] != ref.Dist[v] || ws.Parent[v] != ref.Parent[v] {
					t.Fatalf("n=%d src=%d: node %d = (%v,%d) vs heap (%v,%d)", n, src, v, ws.Dist[v], ws.Parent[v], ref.Dist[v], ref.Parent[v])
				}
			}
		}
	}
}
