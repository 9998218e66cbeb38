package graph

// BFS runs a breadth-first search from src and returns the hop distance to
// every node (-1 for unreachable) and the BFS parent of each node (-1 for
// src and unreachable nodes).
func (g *Graph) BFS(src int) (dist []int, parent []int) {
	n := g.NumNodes()
	dist = make([]int, n)
	parent = make([]int, n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	if n == 0 {
		return dist, parent
	}
	queue := make([]int, 0, n)
	dist[src] = 0
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[u] {
			if dist[h.to] == -1 {
				dist[h.to] = dist[u] + 1
				parent[h.to] = u
				queue = append(queue, h.to)
			}
		}
	}
	return dist, parent
}

// ConnectedComponents labels each node with a component id in [0, k) and
// returns the labels together with the component sizes.
func (g *Graph) ConnectedComponents() (label []int, sizes []int) {
	n := g.NumNodes()
	label = make([]int, n)
	for i := range label {
		label[i] = -1
	}
	var queue []int
	for s := 0; s < n; s++ {
		if label[s] != -1 {
			continue
		}
		id := len(sizes)
		sizes = append(sizes, 0)
		label[s] = id
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			sizes[id]++
			for _, h := range g.adj[u] {
				if label[h.to] == -1 {
					label[h.to] = id
					queue = append(queue, h.to)
				}
			}
		}
	}
	return label, sizes
}

// IsConnected reports whether the graph is connected. The empty graph is
// considered connected.
func (g *Graph) IsConnected() bool {
	if g.NumNodes() == 0 {
		return true
	}
	dist, _ := g.BFS(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// IsTree reports whether the graph is a single tree: connected with
// exactly n-1 edges.
func (g *Graph) IsTree() bool {
	n := g.NumNodes()
	if n == 0 {
		return false
	}
	return g.NumEdges() == n-1 && g.IsConnected()
}

// IsForest reports whether the graph is acyclic (a disjoint union of
// trees). It counts edges per component: a component with c nodes is a
// tree iff it has exactly c-1 edges.
func (g *Graph) IsForest() bool {
	label, sizes := g.ConnectedComponents()
	edgeCount := make([]int, len(sizes))
	for _, e := range g.edges {
		edgeCount[label[e.U]]++
	}
	for id, sz := range sizes {
		if edgeCount[id] != sz-1 {
			return false
		}
	}
	return true
}

// Eccentricity returns the maximum hop distance from src to any reachable
// node. It runs on a freshly frozen snapshot with a pooled workspace; for
// many-source loops freeze once and call CSR.Eccentricity directly.
func (g *Graph) Eccentricity(src int) int {
	c := g.Freeze()
	ws := GetWorkspace(c.NumNodes())
	defer ws.Release()
	return c.Eccentricity(ws, src)
}

// HopDiameter returns the largest hop eccentricity across nodes, computed
// exactly: one freeze, then n pooled-workspace BFS sweeps — O(n * (n + m))
// time with O(n) scratch, no per-source allocation. Disconnected pairs
// are ignored. Returns 0 for graphs with < 2 nodes.
func (g *Graph) HopDiameter() int {
	c := g.Freeze()
	ws := GetWorkspace(c.NumNodes())
	defer ws.Release()
	max := 0
	for u := 0; u < c.NumNodes(); u++ {
		if e := c.Eccentricity(ws, u); e > max {
			max = e
		}
	}
	return max
}

// Leaves returns the ids of all degree-1 nodes.
func (g *Graph) Leaves() []int {
	var out []int
	for u := range g.adj {
		if len(g.adj[u]) == 1 {
			out = append(out, u)
		}
	}
	return out
}
