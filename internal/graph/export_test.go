package graph

// DijkstraBucketTo exposes the unidirectional bounded kernel to the
// external tests, which compare its work with single-target DijkstraTo.
func (c *CSR) DijkstraBucketTo(ws *Workspace, src int, targets []int) {
	c.dijkstraBucket(ws, src, targets)
}

// LegacyBetweenness is the node-only Brandes pass that Betweenness
// replaced, kept verbatim as the external tests' oracle for its node
// sums.
func (g *Graph) LegacyBetweenness() []float64 {
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

// ForestBetweenness exposes the forest path of Betweenness to the
// external tests, which check the graphs it accepts and refuses.
func (g *Graph) ForestBetweenness() (node, edge []float64, ok bool) {
	return g.forestBetweenness()
}

// RaceEnabled reports whether the tests run under the race detector.
func RaceEnabled() bool { return raceEnabled }
