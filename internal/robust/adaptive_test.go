package robust

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/attackreg"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestAdaptiveAttackAtLeastAsDeadly(t *testing.T) {
	// On a scale-free graph the adaptive degree attack is at least as
	// destructive as the static one at every removal fraction.
	g, err := gen.BarabasiAlbertContext(context.Background(), 500, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	fracs := []float64{0.05, 0.1, 0.2, 0.3}
	static, err := lccSweep(g, "degree", fracs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := lccSweep(g, "adaptive-degree", fracs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fracs {
		if adaptive[i] > static[i]+0.05 {
			t.Fatalf("frac %v: adaptive %v notably weaker than static %v",
				fracs[i], adaptive[i], static[i])
		}
	}
}

func TestAdaptiveAttackOrderIsPermutation(t *testing.T) {
	g, err := gen.BarabasiAlbertContext(context.Background(), 100, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := attackreg.Lookup("adaptive-degree")
	if err != nil {
		t.Fatal(err)
	}
	order, err := atk.Schedule(context.Background(), g.Clone(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 100 {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, 100)
	for _, v := range order {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatal("removal order is not a permutation")
		}
		seen[v] = true
	}
	// First removal is the max-degree hub.
	deg := g.Degrees()
	for _, d := range deg {
		if d > deg[order[0]] {
			t.Fatal("adaptive attack did not start at the max-degree hub")
		}
	}
}

// adaptiveSchedule runs the registry's adaptive-degree attack on g.
func adaptiveSchedule(t *testing.T, g *graph.Graph) []int {
	t.Helper()
	atk, err := attackreg.Lookup("adaptive-degree")
	if err != nil {
		t.Fatal(err)
	}
	order, err := atk.Schedule(context.Background(), g, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return order
}

// adaptiveDegreeScan is the O(n²) oracle for the adaptive-degree
// schedule: before each removal it scans every node for the highest
// residual degree, ties to the lowest id, and then decrements the
// residual degrees of the removed node's neighbours.
func adaptiveDegreeScan(g *graph.Graph) []int {
	n := g.NumNodes()
	deg := g.Degrees()
	removed := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		best := -1
		for v := 0; v < n; v++ {
			if removed[v] {
				continue
			}
			if best == -1 || deg[v] > deg[best] {
				best = v
			}
		}
		removed[best] = true
		order = append(order, best)
		g.Neighbors(best, func(u, _ int) {
			if !removed[u] {
				deg[u]--
			}
		})
	}
	return order
}

// tieMultigraph is a hand-built 8-node multigraph with parallel edges
// (a triple 0-1 and a double 2-3) where most nodes share a degree, so
// nearly every step of the adaptive schedule is decided by its
// tie-break.
func tieMultigraph() *graph.Graph {
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		g.AddNode(graph.Node{})
	}
	for _, e := range [][2]int{
		{0, 1}, {0, 1}, {0, 1}, {2, 3}, {2, 3}, {1, 4},
		{4, 5}, {5, 6}, {6, 7}, {7, 4}, {3, 6}, {2, 5},
	} {
		g.AddEdge(graph.Edge{U: e[0], V: e[1], Weight: 1})
	}
	return g
}

// TestAdaptiveDegreeCertificate checks every step of the registry's
// adaptive-degree schedule from scratch: before each removal it
// recounts every residual degree as the half-edges to unremoved
// neighbours, and the removed node must have the maximum, ties going to
// the smallest id.
func TestAdaptiveDegreeCertificate(t *testing.T) {
	graphs := parityModels(t)
	graphs["multigraph"] = tieMultigraph()
	for name, g := range graphs {
		n := g.NumNodes()
		order := adaptiveSchedule(t, g)
		if len(order) != n {
			t.Fatalf("%s: schedule has %d entries, want %d", name, len(order), n)
		}
		removed := make([]bool, n)
		for k, v := range order {
			best, bestDeg := -1, -1
			for u := 0; u < n; u++ {
				if removed[u] {
					continue
				}
				d := 0
				g.Neighbors(u, func(w, _ int) {
					if !removed[w] {
						d++
					}
				})
				if d > bestDeg {
					best, bestDeg = u, d
				}
			}
			if v != best {
				t.Fatalf("%s: removal %d took node %d, want node %d (residual degree %d)", name, k, v, best, bestDeg)
			}
			removed[v] = true
		}
	}
}

// TestAdaptiveDegreeMatchesScan pins the registry's adaptive-degree
// schedule to the O(n²) scan on 10k-node preferential-attachment and
// Erdős–Rényi graphs.
func TestAdaptiveDegreeMatchesScan(t *testing.T) {
	ba, err := gen.BarabasiAlbertContext(context.Background(), 10000, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	er, err := gen.ErdosRenyiGNMContext(context.Background(), 10000, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"ba": ba, "er": er} {
		if got, want := adaptiveSchedule(t, g), adaptiveDegreeScan(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: adaptive-degree schedule differs from the scan", name)
		}
	}
}
