package graph

import (
	"context"

	"repro/internal/errs"
)

// maxForestComponent bounds the components the forest path of
// Betweenness serves: below 2^26 nodes every Brandes partial sum on a
// tree, at most (c-1)^2, is an integer below 2^52 that float64 holds
// exactly.
const maxForestComponent = 1 << 26

// Betweenness computes exact node and edge betweenness centrality on the
// unweighted graph, as unnormalized pair-dependency sums with each
// unordered pair counted once: node[u] over the pairs whose shortest
// paths pass through u, edge[e] over those whose paths use edge e
// (parallel edges share a pair's paths).
//
// A forest (fewer edges than nodes, and a BFS that meets no second path
// to any node, so parallel edges count as a cycle) is answered from
// subtree sizes in O(n + m): removing u splits its component of c nodes
// into pieces of sizes s_i, and u scores ((c-1)^2 - Σ s_i^2)/2; the edge
// above a subtree of s nodes scores s(c-s). On a forest every path count
// is 1, so each Brandes dependency and partial sum is an integer below
// 2^53 and exact in float64, and these integers equal Brandes' sums bit
// for bit. A component of 2^26 nodes or more, where that bound fails,
// and every other graph take Brandes' algorithm, O(n·m).
//
// The context is checked once before the forest walk and before each
// Brandes source; a canceled pass returns an errs.ErrCanceled-wrapping
// error and no sums.
func (g *Graph) Betweenness(ctx context.Context) (node, edge []float64, err error) {
	n := g.NumNodes()
	if g.NumEdges() < n {
		if err := errs.Ctx(ctx); err != nil {
			return nil, nil, err
		}
		if node, edge, ok := g.forestBetweenness(); ok {
			return node, edge, nil
		}
	}
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

// forestBetweenness is Betweenness on a forest, from subtree sizes. It
// BFS-walks each component, then walks it back in reverse BFS order,
// where every node follows its parent, so each subtree is complete
// before its parent reads it. ok is false when the walk meets a second
// path to a node (a cycle, or a pair of parallel edges) or a component
// of maxForestComponent nodes.
func (g *Graph) forestBetweenness() (node, edge []float64, ok bool) {
	n := g.NumNodes()
	node = make([]float64, n)
	edge = make([]float64, g.NumEdges())
	order := make([]int, 0, n)
	// up[v] is the half-edge from v to its BFS parent, edge -1 at a root;
	// size[v] is 0 until the BFS reaches v, then v's subtree size once
	// the reverse walk has added its children, and sumSq[v] sums their
	// squares.
	up := make([]halfEdge, n)
	size := make([]int64, n)
	sumSq := make([]int64, n)
	for r := 0; r < n; r++ {
		if size[r] != 0 {
			continue
		}
		start := len(order)
		size[r] = 1
		up[r] = halfEdge{edge: -1}
		order = append(order, r)
		for head := start; head < len(order); head++ {
			u := order[head]
			for _, h := range g.adj[u] {
				if h.edge == up[u].edge {
					continue
				}
				if size[h.to] != 0 {
					return nil, nil, false
				}
				size[h.to] = 1
				up[h.to] = halfEdge{to: u, edge: h.edge}
				order = append(order, h.to)
			}
		}
		c := int64(len(order) - start)
		if c >= maxForestComponent {
			return nil, nil, false
		}
		for i := len(order) - 1; i >= start; i-- {
			v := order[i]
			s, above := size[v], c-size[v]
			node[v] = float64(((c-1)*(c-1) - sumSq[v] - above*above) / 2)
			if p := up[v]; p.edge >= 0 {
				edge[p.edge] = float64(s * above)
				size[p.to] += s
				sumSq[p.to] += s * s
			}
		}
	}
	return node, edge, true
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
