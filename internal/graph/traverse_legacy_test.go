package graph

import "testing"

// The adjacency-list traversals that the CSR kernels replaced, kept as
// the tests' oracles: a FIFO BFS over the builder's adjacency lists
// (once Graph.BFS) with the eccentricity and hop diameter read off it
// (once Graph.HopDiameter), and the subgraph copies the masked component
// kernel is checked against (once Graph.RemoveNodes and
// Graph.InducedSubgraphFromSorted, verbatim).

// adjacencyBFS runs a FIFO breadth-first search from src over g's
// adjacency lists and returns the hop distance to every node (-1 for
// unreachable).
func adjacencyBFS(g *Graph, src int) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[u] {
			if dist[h.to] == -1 {
				dist[h.to] = dist[u] + 1
				queue = append(queue, h.to)
			}
		}
	}
	return dist
}

// legacyEccentricity returns the maximum finite hop distance from src
// over the adjacency lists.
func legacyEccentricity(g *Graph, src int) int {
	e := 0
	for _, d := range adjacencyBFS(g, src) {
		e = max(e, d)
	}
	return e
}

func legacyHopDiameter(g *Graph) int {
	d := 0
	for u := 0; u < g.NumNodes(); u++ {
		d = max(d, legacyEccentricity(g, u))
	}
	return d
}

// hopEccentricity returns the maximum finite hop distance CSR.BFS
// reaches from src (once CSR.Eccentricity): the per-source maximum that
// the metric registry's diameter takes over every node.
func hopEccentricity(c *CSR, ws *Workspace, src int) int {
	c.BFS(ws, src)
	e := int32(0)
	for _, d := range ws.Hop[:c.NumNodes()] {
		e = max(e, d)
	}
	return int(e)
}

// hopDiameter is hopEccentricity maximized over every source of g's
// snapshot.
func hopDiameter(g *Graph) int {
	c := g.Freeze()
	ws := newWorkspace(c.NumNodes())
	d := 0
	for src := 0; src < c.NumNodes(); src++ {
		d = max(d, hopEccentricity(c, ws, src))
	}
	return d
}

// TestKernelizedTraversalsMatchLegacy pins CSR.BFS's hop distances,
// eccentricities and hop diameter to the adjacency-list BFS from every
// source, on connected, disconnected, and degenerate graphs.
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
		if got, want := hopDiameter(g), legacyHopDiameter(g); got != want {
			t.Fatalf("%s: hop diameter = %d, legacy %d", name, got, want)
		}
		c := g.Freeze()
		ws := newWorkspace(c.NumNodes())
		for src := 0; src < g.NumNodes(); src++ {
			if got, want := hopEccentricity(c, ws, src), legacyEccentricity(g, src); got != want {
				t.Fatalf("%s: eccentricity(%d) = %d, legacy %d", name, src, got, want)
			}
			for v, d := range adjacencyBFS(g, src) {
				if int32(d) != ws.Hop[v] {
					t.Fatalf("%s: src %d: hop[%d] = %d, legacy %d", name, src, v, ws.Hop[v], d)
				}
			}
		}
	}
}

// removeNodes returns a copy of g with the given nodes (and their incident
// edges) deleted, plus the mapping from new ids to original ids.
func removeNodes(g *Graph, removed []int) (*Graph, []int) {
	drop := make(map[int]bool, len(removed))
	for _, u := range removed {
		drop[u] = true
	}
	keep := make([]int, 0, len(g.nodes)-len(drop))
	for u := range g.nodes {
		if !drop[u] {
			keep = append(keep, u)
		}
	}
	return inducedSubgraphFromSorted(g, keep)
}

// inducedSubgraphFromSorted returns the subgraph on the given sorted,
// duplicate-free node list plus a mapping from new ids to original ids.
// Edges with both endpoints in the list are kept.
func inducedSubgraphFromSorted(g *Graph, nodes []int) (*Graph, []int) {
	newID := make([]int, len(g.nodes))
	for i := range newID {
		newID[i] = -1
	}
	sub := New(len(nodes))
	for i, u := range nodes {
		newID[u] = i
		sub.AddNode(g.nodes[u])
	}
	for _, e := range g.edges {
		if newID[e.U] >= 0 && newID[e.V] >= 0 {
			ne := e
			ne.U, ne.V = newID[e.U], newID[e.V]
			sub.AddEdge(ne)
		}
	}
	return sub, append([]int(nil), nodes...)
}
