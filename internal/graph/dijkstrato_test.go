package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkTargetChains pins the bounded kernel's guarantee: at every
// target, Dist and the whole Parent/ParentEdge chain back to the source
// equal the full reference run's. The walk follows the reference
// parents and stops after n steps, so a zero-weight parent cycle is
// compared node by node instead of looping.
func checkTargetChains(t *testing.T, label string, n int, targets []int, ref, got *Workspace) {
	t.Helper()
	for _, tg := range targets {
		for v, hops := int32(tg), 0; v >= 0 && hops <= n; v, hops = ref.Parent[v], hops+1 {
			if got.Dist[v] != ref.Dist[v] || got.Parent[v] != ref.Parent[v] || got.ParentEdge[v] != ref.ParentEdge[v] {
				t.Fatalf("%s target %d: chain node %d = (%v,%d,%d), full run (%v,%d,%d)",
					label, tg, v, got.Dist[v], got.Parent[v], got.ParentEdge[v], ref.Dist[v], ref.Parent[v], ref.ParentEdge[v])
			}
		}
	}
}

// TestDijkstraToMatchesHeap runs the bounded bucketed kernel and the
// exported entry point across the bucket-binning weight regimes with
// parallel edges, and pins every target chain to DijkstraHeap. Target
// sets: a far node, a source-adjacent node, the source itself, a
// duplicated pair, an isolated node (unreachable), and every node.
// Through DijkstraTo, the sets naming one node other than the source
// run the bidirectional kernel.
func TestDijkstraToMatchesHeap(t *testing.T) {
	for _, reg := range dijkstraRegimes {
		for _, seed := range []int64{1, 2} {
			g := regimeGraph(seed, reg.weight)
			isolated := g.AddNode(Node{})
			c := g.Freeze()
			n := c.NumNodes()
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			ref := newWorkspace(n)
			ws := newWorkspace(n)
			for src := 0; src < n-1; src += 13 {
				c.DijkstraHeap(ref, src)
				adjacent := int(c.nbr[c.rowStart[src]])
				far := (src + n/2) % (n - 1)
				for _, targets := range [][]int{{far}, {adjacent}, {src}, {far, far}, {isolated}, all} {
					runs := map[string]func(){
						"bucket":     func() { c.dijkstraBucket(ws, src, targets) },
						"DijkstraTo": func() { c.DijkstraTo(ws, src, targets) },
					}
					for name, run := range runs {
						run()
						checkTargetChains(t, reg.name+"/"+name, n, targets, ref, ws)
					}
				}
			}
		}
	}
}

// tieRegimes are weight regimes where many paths tie: small integers
// with zeros, and thirds, whose sums also round differently when the
// forward and backward searches add the same path in opposite orders.
var tieRegimes = []struct {
	name   string
	weight func(r *rand.Rand) float64
}{
	{"ints-0-1-2", func(r *rand.Rand) float64 { return float64(r.Intn(3)) }},
	{"thirds", func(r *rand.Rand) float64 { return float64(1+r.Intn(3)) / 3 }},
}

// raceEnabled is set by race_test.go when the tests run under the race
// detector.
var raceEnabled bool

// geoSnapshots are geometric graphs for the goal-directed kernel, each
// with whether Freeze should make its single-target search
// goal-directed:
//   - lattice: a 12x12 grid at integer coordinates with unit weights and
//     a few weight-√2 diagonals, so many shortest paths tie and the
//     potentials along grid lines are exact;
//   - colocated: Euclidean weights on random points, a fifth of them
//     placed on another node, so zero-length zero-weight edges tie too;
//   - origin: unit weights with every coordinate at 0, which leaves no
//     positive-length edge to bound, so the search stays undirected;
//   - heavy: Euclidean weights plus one edge lighter than its length
//     (weight 0), which sets κ to 0 and turns the potential off.
func geoSnapshots() []struct {
	name     string
	g        *Graph
	wantGoal bool
} {
	lattice := New(144)
	for i := 0; i < 144; i++ {
		lattice.AddNode(Node{X: float64(i % 12), Y: float64(i / 12)})
	}
	for i := 0; i < 144; i++ {
		if i%12 < 11 {
			lattice.AddEdge(Edge{U: i, V: i + 1, Weight: 1})
		}
		if i+12 < 144 {
			lattice.AddEdge(Edge{U: i, V: i + 12, Weight: 1})
		}
		if i%12 < 11 && i+13 < 144 && i%5 == 0 {
			lattice.AddEdge(Edge{U: i, V: i + 13, Weight: math.Sqrt2})
		}
	}
	euclid := func(seed int64, colocate bool) *Graph {
		r := rand.New(rand.NewSource(seed))
		g := New(150)
		for i := 0; i < 150; i++ {
			nd := Node{X: r.Float64(), Y: r.Float64()}
			if colocate && i > 0 && r.Intn(5) == 0 {
				nd = *g.Node(r.Intn(i))
			}
			g.AddNode(nd)
		}
		// Local edges: each node joins its nearest earlier node, which
		// spans the graph, and every other node its second nearest too.
		for i := 1; i < 150; i++ {
			first, second := -1, -1
			d := func(j int) float64 {
				dx, dy := g.Node(i).X-g.Node(j).X, g.Node(i).Y-g.Node(j).Y
				return dx*dx + dy*dy
			}
			for j := 0; j < i; j++ {
				if first < 0 || d(j) < d(first) {
					first, second = j, first
				} else if second < 0 || d(j) < d(second) {
					second = j
				}
			}
			g.AddEdge(Edge{U: i, V: first})
			if second >= 0 && i%2 == 0 {
				g.AddEdge(Edge{U: i, V: second})
			}
		}
		g.EuclideanWeights()
		return g
	}
	origin := New(150)
	for i := 0; i < 150; i++ {
		origin.AddNode(Node{})
	}
	r := rand.New(rand.NewSource(3))
	for i := 1; i < 150; i++ {
		origin.AddEdge(Edge{U: i, V: r.Intn(i), Weight: 1})
	}
	heavy := euclid(4, false)
	heavy.AddEdge(Edge{U: 0, V: 1, Weight: 0})
	return []struct {
		name     string
		g        *Graph
		wantGoal bool
	}{
		{"lattice", lattice, true},
		{"colocated", euclid(2, true), true},
		{"origin", origin, false},
		{"heavy", heavy, false},
	}
}

// TestDijkstraToSingleTargetAllPairs pins the bidirectional kernel
// behind single-target DijkstraTo to DijkstraHeap for every ordered
// (source, target) pair of the regime graph, plus an isolated
// (unreachable) target, under every bucket-binning and tie-heavy weight
// regime, and of each geometric snapshot, whose search is goal-directed
// where Freeze says so: the target's Dist and its whole
// Parent/ParentEdge chain, bit for bit. The test runs on one goroutine,
// so the race detector, which slows it about tenfold, checks only every
// seventh source.
func TestDijkstraToSingleTargetAllPairs(t *testing.T) {
	stride := 1
	if raceEnabled {
		stride = 7
	}
	type snapshot struct {
		name     string
		g        *Graph
		wantGoal bool
	}
	var snaps []snapshot
	for _, reg := range append(slices.Clone(dijkstraRegimes), tieRegimes...) {
		snaps = append(snaps, snapshot{reg.name, regimeGraph(1, reg.weight), false})
	}
	for _, geo := range geoSnapshots() {
		snaps = append(snaps, snapshot(geo))
	}
	for _, snap := range snaps {
		g := snap.g
		g.AddNode(Node{X: 0.5, Y: 0.5})
		c := g.Freeze()
		if !c.bucketOK {
			t.Fatalf("%s: expected bucketOK snapshot", snap.name)
		}
		if goal := c.kappa > 0; goal != snap.wantGoal {
			t.Fatalf("%s: goal-directed %v, want %v", snap.name, goal, snap.wantGoal)
		}
		n := c.NumNodes()
		ref := newWorkspace(n)
		ws := newWorkspace(n)
		targets := make([]int, 1)
		for src := 0; src < n-1; src += stride {
			c.DijkstraHeap(ref, src)
			for tg := 0; tg < n; tg++ {
				if tg == src {
					continue
				}
				targets[0] = tg
				c.DijkstraTo(ws, src, targets)
				checkTargetChains(t, snap.name+"/bidir", n, targets, ref, ws)
			}
		}
	}
}

// TestDijkstraToStopsAtTarget checks that the bound takes effect in the
// bucketed and the bidirectional kernel: on a 100-node unit-weight path
// from node 0, settling target 1 must leave the far end untouched, while
// an unbounded run reaches it.
func TestDijkstraToStopsAtTarget(t *testing.T) {
	const n = 100
	c := pathGraph(n).Freeze()
	ws := newWorkspace(n)
	runs := map[string]func(targets []int){
		"bucket":     func(tg []int) { c.dijkstraBucket(ws, 0, tg) },
		"DijkstraTo": func(tg []int) { c.DijkstraTo(ws, 0, tg) },
	}
	for name, run := range runs {
		run([]int{1})
		if ws.Dist[1] != 1 || ws.Parent[1] != 0 {
			t.Fatalf("%s: target (dist %v, parent %d), want (1, 0)", name, ws.Dist[1], ws.Parent[1])
		}
		if !math.IsInf(ws.Dist[n-1], 1) {
			t.Fatalf("%s: bounded run settled dist[%d] = %v, want Inf", name, n-1, ws.Dist[n-1])
		}
		run(nil)
		if ws.Dist[n-1] != n-1 {
			t.Fatalf("%s: full run dist[%d] = %v, want %d", name, n-1, ws.Dist[n-1], n-1)
		}
	}
}

// TestDijkstraToZeroAllocs pins the bounded bucketed kernel and the
// single-target bidirectional kernel, undirected and goal-directed, at 0
// allocations per call on a warm workspace.
func TestDijkstraToZeroAllocs(t *testing.T) {
	for _, g := range []*Graph{randomTestGraph(500, 1500, 7), geoSnapshots()[0].g} {
		c := g.Freeze()
		ws := newWorkspace(c.NumNodes())
		for _, targets := range [][]int{{3, 100, 143}, {100}} {
			c.DijkstraTo(ws, 0, targets)
			if allocs := testing.AllocsPerRun(50, func() { c.DijkstraTo(ws, 0, targets) }); allocs != 0 {
				t.Fatalf("bounded DijkstraTo to %v (goal-directed %v) allocates %v per call, want 0", targets, c.kappa > 0, allocs)
			}
		}
	}
}

// TestGoalBoundBelowDistances checks the property goalShave buys: on
// every goal-directed snapshot, κ'·|v−t| is at most the computed
// distance from v to t for every pair. A line of nodes 0.1 apart makes
// the check bite: the weights are exact differences of the
// coordinates, but their running sums round, some below the coordinate
// they telescope to, so an unshaved κ = 1 would overshoot.
func TestGoalBoundBelowDistances(t *testing.T) {
	line := New(100)
	for i := 0; i < 100; i++ {
		line.AddNode(Node{X: float64(i) * 0.1})
	}
	for i := 0; i+1 < 100; i++ {
		line.AddEdge(Edge{U: i, V: i + 1})
	}
	line.EuclideanWeights()
	graphs := []*Graph{line}
	for _, geo := range geoSnapshots() {
		if geo.wantGoal {
			graphs = append(graphs, geo.g)
		}
	}
	for gi, g := range graphs {
		c := g.Freeze()
		if c.kappa <= 0 {
			t.Fatalf("graph %d: expected a goal-directed snapshot", gi)
		}
		n := c.NumNodes()
		ws := newWorkspace(n)
		for tgt := 0; tgt < n; tgt++ {
			c.DijkstraHeap(ws, tgt)
			pot := c.potential(tgt, tgt)
			for v := 0; v < n; v++ {
				_, toT := pot.at(int32(v))
				if lb := c.kappa * toT; lb > ws.Dist[v] {
					t.Fatalf("graph %d: κ'|v−t| = %v exceeds dist(%d, %d) = %v", gi, lb, v, tgt, ws.Dist[v])
				}
			}
		}
	}
}

// TestWorkspaceLabelReset pins the bounded runs' sparse label reset:
// one workspace alternates bounded, single-target and full Dijkstra
// runs with BFS, the masked-component kernel (both reuse the queue that
// lists the labelled nodes), the heap kernel and snapshots of other
// sizes, and
// after every Dijkstra call each node's Dist, Parent and ParentEdge must
// equal a run on a fresh workspace wherever the kernel guarantees them —
// at the targets' chains, and at every node that was not reached, which
// must read Inf and -1.
func TestWorkspaceLabelReset(t *testing.T) {
	big := randomTestGraph(400, 600, 3)
	big.AddNode(Node{}) // isolated: never reached
	small := geoSnapshots()[0].g
	cb, cs := big.Freeze(), small.Freeze()
	ws := newWorkspace(0)
	r := rand.New(rand.NewSource(5))
	for step := 0; step < 400; step++ {
		c := cb
		if r.Intn(3) == 0 {
			c = cs
		}
		n := c.NumNodes()
		src := r.Intn(n)
		var targets []int
		switch r.Intn(6) {
		case 0:
			c.BFS(ws, src)
			continue
		case 1:
			c.DijkstraHeap(ws, src)
			continue
		case 5:
			c.LargestComponentMasked(ws, make([]bool, n), nil)
			continue
		case 2: // full run
		case 3:
			targets = []int{r.Intn(n)}
		default:
			targets = []int{r.Intn(n), r.Intn(n), n - 1}
		}
		c.DijkstraTo(ws, src, targets)
		fresh := newWorkspace(n)
		c.DijkstraHeap(fresh, src)
		if len(targets) == 0 {
			targets = make([]int, n)
			for i := range targets {
				targets[i] = i
			}
		}
		checkTargetChains(t, "reset", n, targets, fresh, ws)
		for v := 0; v < n; v++ {
			if math.IsInf(fresh.Dist[v], 1) && (!math.IsInf(ws.Dist[v], 1) || ws.Parent[v] != -1 || ws.ParentEdge[v] != -1) {
				t.Fatalf("step %d: unreached node %d reads (%v, %d, %d), want (Inf, -1, -1)", step, v, ws.Dist[v], ws.Parent[v], ws.ParentEdge[v])
			}
		}
	}
}
