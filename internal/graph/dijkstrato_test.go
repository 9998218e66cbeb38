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
			ref := NewWorkspace(n)
			ws := NewWorkspace(n)
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

// TestDijkstraToSingleTargetAllPairs pins the bidirectional kernel
// behind single-target DijkstraTo to DijkstraHeap for every ordered
// (source, target) pair of the regime graph, plus an isolated
// (unreachable) target, under every bucket-binning and tie-heavy weight
// regime: the target's Dist and its whole Parent/ParentEdge chain, bit
// for bit. The test runs on one goroutine, so the race detector, which
// slows it about tenfold, checks only every seventh source.
func TestDijkstraToSingleTargetAllPairs(t *testing.T) {
	stride := 1
	if raceEnabled {
		stride = 7
	}
	for _, reg := range append(slices.Clone(dijkstraRegimes), tieRegimes...) {
		g := regimeGraph(1, reg.weight)
		g.AddNode(Node{})
		c := g.Freeze()
		if !c.bucketOK {
			t.Fatalf("regime %s: expected bucketOK snapshot", reg.name)
		}
		n := c.NumNodes()
		ref := NewWorkspace(n)
		ws := NewWorkspace(n)
		targets := make([]int, 1)
		for src := 0; src < n-1; src += stride {
			c.DijkstraHeap(ref, src)
			for tg := 0; tg < n; tg++ {
				if tg == src {
					continue
				}
				targets[0] = tg
				c.DijkstraTo(ws, src, targets)
				checkTargetChains(t, reg.name+"/bidir", n, targets, ref, ws)
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
	ws := NewWorkspace(n)
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
// single-target bidirectional kernel at 0 allocations per call on a
// warm workspace.
func TestDijkstraToZeroAllocs(t *testing.T) {
	c := randomTestGraph(500, 1500, 7).Freeze()
	ws := NewWorkspace(c.NumNodes())
	for _, targets := range [][]int{{3, 250, 499}, {250}} {
		c.DijkstraTo(ws, 0, targets)
		if allocs := testing.AllocsPerRun(50, func() { c.DijkstraTo(ws, 0, targets) }); allocs != 0 {
			t.Fatalf("bounded DijkstraTo to %v allocates %v per call, want 0", targets, allocs)
		}
	}
}
