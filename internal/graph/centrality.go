package graph

// Betweenness computes exact node betweenness centrality on the unweighted
// graph using Brandes' algorithm. The returned values are unnormalized
// pair-dependency sums (each unordered pair counted once).
func (g *Graph) Betweenness() []float64 {
	n := g.NumNodes()
	bc := make([]float64, n)
	// Reusable buffers across sources.
	sigma := make([]float64, n)
	dist := make([]int, n)
	delta := make([]float64, n)
	preds := make([][]int, n)
	stack := make([]int, 0, n)
	queue := make([]int, 0, n)

	for s := 0; s < n; s++ {
		for i := 0; i < n; i++ {
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		stack = stack[:0]
		queue = queue[:0]
		sigma[s] = 1
		dist[s] = 0
		queue = append(queue, s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			stack = append(stack, u)
			for _, h := range g.adj[u] {
				v := h.to
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], u)
				}
			}
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				bc[w] += delta[w]
			}
		}
	}
	// Each unordered pair was counted twice (once per endpoint as source).
	for i := range bc {
		bc[i] /= 2
	}
	return bc
}

// BridgeEdges returns the indices of all bridge edges (edges whose removal
// disconnects their component) via Tarjan's low-link DFS, iterative to
// avoid stack overflow on long path graphs.
func (g *Graph) BridgeEdges() []int {
	n := g.NumNodes()
	disc := make([]int, n)
	low := make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	var bridges []int
	timer := 0

	type frame struct {
		u, parentEdge int
		nextIdx       int
	}
	for s := 0; s < n; s++ {
		if disc[s] != -1 {
			continue
		}
		stack := []frame{{u: s, parentEdge: -1}}
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.nextIdx < len(g.adj[f.u]) {
				h := g.adj[f.u][f.nextIdx]
				f.nextIdx++
				if h.edge == f.parentEdge {
					continue // don't traverse the tree edge back (parallel edges still processed)
				}
				if disc[h.to] == -1 {
					disc[h.to] = timer
					low[h.to] = timer
					timer++
					stack = append(stack, frame{u: h.to, parentEdge: h.edge})
				} else if disc[h.to] < low[f.u] {
					low[f.u] = disc[h.to]
				}
				continue
			}
			// Post-order: propagate low-link to parent.
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				if low[f.u] < low[p.u] {
					low[p.u] = low[f.u]
				}
				if low[f.u] > disc[p.u] {
					bridges = append(bridges, f.parentEdge)
				}
			}
		}
	}
	return bridges
}

// IsTwoEdgeConnected reports whether the graph is connected and has no
// bridges.
func (g *Graph) IsTwoEdgeConnected() bool {
	if g.NumNodes() < 2 {
		return false
	}
	return g.IsConnected() && len(g.BridgeEdges()) == 0
}
