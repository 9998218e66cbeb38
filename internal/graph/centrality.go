package graph

import (
	"context"

	"repro/internal/errs"
)

// Betweenness computes exact node and edge betweenness centrality on the
// unweighted graph with Brandes' algorithm, as unnormalized
// pair-dependency sums with each unordered pair counted once: node[u]
// over the pairs whose shortest paths pass through u, edge[e] over those
// whose paths use edge e (parallel edges share a pair's paths). The
// context is checked before each source; a canceled pass returns an
// errs.ErrCanceled-wrapping error and no sums.
func (g *Graph) Betweenness(ctx context.Context) (node, edge []float64, err error) {
	n := g.NumNodes()
	node = make([]float64, n)
	edge = make([]float64, g.NumEdges())
	// Reusable buffers across sources. order is the BFS queue, walked by
	// index, and read backwards it is the stack of the dependency pass;
	// preds[v] holds the half-edges from v back to its predecessors.
	sigma := make([]float64, n)
	dist := make([]int, n)
	delta := make([]float64, n)
	preds := make([][]halfEdge, n)
	order := make([]int, 0, n)
	for i := range dist {
		dist[i] = -1
	}

	for s := 0; s < n; s++ {
		if err := errs.Ctx(ctx); err != nil {
			return nil, nil, err
		}
		sigma[s] = 1
		dist[s] = 0
		order = append(order[:0], s)
		for head := 0; head < len(order); head++ {
			u := order[head]
			for _, h := range g.adj[u] {
				v := h.to
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					order = append(order, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], halfEdge{to: u, edge: h.edge})
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, p := range preds[w] {
				// Rounded once, so the node and edge sums add the same value.
				c := float64(sigma[p.to] / sigma[w] * (1 + delta[w]))
				edge[p.edge] += c
				delta[p.to] += c
			}
			if w != s {
				node[w] += delta[w]
			}
		}
		// Only the nodes this source reached hold state.
		for _, v := range order {
			sigma[v] = 0
			dist[v] = -1
			delta[v] = 0
			preds[v] = preds[v][:0]
		}
	}
	// Each unordered pair was counted twice (once per endpoint as source).
	for i := range node {
		node[i] /= 2
	}
	for i := range edge {
		edge[i] /= 2
	}
	return node, edge, nil
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
