package graph

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
	_, sizes := g.ConnectedComponents()
	return len(sizes) <= 1
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
