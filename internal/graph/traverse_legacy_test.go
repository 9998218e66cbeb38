package graph

import "testing"

// Verbatim copies of the pre-kernelization traversal helpers (one
// allocating BFS per source, no CSR, no workspace pooling).
// The exported methods now freeze once and sweep pooled kernels; these
// references pin their results.

func legacyEccentricity(g *Graph, src int) int {
	dist, _ := g.BFS(src)
	max := 0
	for _, d := range dist {
		if d > max {
			max = d
		}
	}
	return max
}

func legacyHopDiameter(g *Graph) int {
	max := 0
	for u := 0; u < g.NumNodes(); u++ {
		if e := legacyEccentricity(g, u); e > max {
			max = e
		}
	}
	return max
}

// TestKernelizedTraversalsMatchLegacy pins the freeze-once pooled
// implementations of Eccentricity and HopDiameter to the original
// per-source allocating versions, on connected, disconnected, and
// degenerate graphs.
func TestKernelizedTraversalsMatchLegacy(t *testing.T) {
	graphs := map[string]*Graph{
		"connected":    randomTestGraph(90, 150, 21),
		"empty":        New(0),
		"single":       New(1),
		"disconnected": New(9),
	}
	graphs["single"].AddNode(Node{})
	dg := graphs["disconnected"]
	for i := 0; i < 9; i++ {
		dg.AddNode(Node{})
	}
	// Two components of different diameters plus an isolated node.
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}} {
		dg.AddEdge(Edge{U: e[0], V: e[1], Weight: float64(e[0]) + 0.5, Cable: -1})
	}

	for name, g := range graphs {
		if got, want := g.HopDiameter(), legacyHopDiameter(g); got != want {
			t.Fatalf("%s: HopDiameter = %d, legacy %d", name, got, want)
		}
		c := g.Freeze()
		ws := NewWorkspace(c.NumNodes())
		for src := 0; src < g.NumNodes(); src++ {
			if got, want := c.Eccentricity(ws, src), legacyEccentricity(g, src); got != want {
				t.Fatalf("%s: Eccentricity(%d) = %d, legacy %d", name, src, got, want)
			}
		}
	}
}
