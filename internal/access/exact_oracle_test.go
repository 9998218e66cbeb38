package access

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
)

// maxExactCustomers bounds exactTreeOPT's instance size: the enumeration
// visits (n+1)^(n-1) spanning trees.
const maxExactCustomers = 7

// exactTreeOPT computes the exact optimal cost over all spanning trees of
// root + customers (no Steiner points — the same solution class the
// incremental heuristics search), by enumerating every labelled tree via
// Prüfer sequences and pricing each with the optimal cable assignment.
// It returns the optimal cost and the optimal tree as parent ids
// (parent[i] for customer i, with 0 the root; parent[root] is -1).
//
// This is the ground truth the heuristics are validated against:
// exponential in n, so n is capped at maxExactCustomers.
func exactTreeOPT(in *Instance) (float64, []int, error) {
	if err := in.Validate(); err != nil {
		return 0, nil, err
	}
	n := len(in.Customers)
	if n > maxExactCustomers {
		return 0, nil, fmt.Errorf("access: exact solver capped at %d customers (got %d)", maxExactCustomers, n)
	}
	m := n + 1 // tree nodes: 0 = root, 1..n = customers
	if m == 1 {
		return 0, []int{-1}, nil
	}
	// Pairwise distances.
	pts := make([]geom.Point, m)
	pts[0] = in.Root
	for i, c := range in.Customers {
		pts[i+1] = c.Loc
	}
	dist := make([][]float64, m)
	for i := range dist {
		dist[i] = make([]float64, m)
		for j := range dist[i] {
			dist[i][j] = pts[i].Dist(pts[j])
		}
	}
	demand := make([]float64, m)
	for i, c := range in.Customers {
		demand[i+1] = c.Demand
	}

	best := math.Inf(1)
	var bestParent []int

	if m == 2 {
		_, _, unit := in.Catalog.BestCableConfig(demand[1])
		return unit * dist[0][1], []int{-1, 0}, nil
	}

	// Enumerate Prüfer sequences of length m-2 over alphabet [0, m).
	seq := make([]int, m-2)
	adj := make([][]int, m)
	degree := make([]int, m)
	parent := make([]int, m)
	order := make([]int, 0, m)
	var evaluate func()
	evaluate = func() {
		// Decode Prüfer: standard algorithm.
		for i := range degree {
			degree[i] = 1
			adj[i] = adj[i][:0]
		}
		for _, v := range seq {
			degree[v]++
		}
		type edge struct{ u, v int }
		edges := make([]edge, 0, m-1)
		// Use a simple scan; m <= 8 so O(m^2) decode is fine.
		deg := append([]int(nil), degree...)
		used := make([]bool, m)
		for _, v := range seq {
			leaf := -1
			for u := 0; u < m; u++ {
				if !used[u] && deg[u] == 1 {
					leaf = u
					break
				}
			}
			edges = append(edges, edge{leaf, v})
			used[leaf] = true
			deg[v]--
			deg[leaf]--
		}
		last := make([]int, 0, 2)
		for u := 0; u < m; u++ {
			if !used[u] && deg[u] == 1 {
				last = append(last, u)
			}
		}
		edges = append(edges, edge{last[0], last[1]})
		// Root the tree at 0, aggregate subtree demand bottom-up.
		for i := range adj {
			adj[i] = adj[i][:0]
		}
		for _, e := range edges {
			adj[e.u] = append(adj[e.u], e.v)
			adj[e.v] = append(adj[e.v], e.u)
		}
		for i := range parent {
			parent[i] = -2
		}
		order = order[:0]
		parent[0] = -1
		stack := []int{0}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, u)
			for _, v := range adj[u] {
				if parent[v] == -2 {
					parent[v] = u
					stack = append(stack, v)
				}
			}
		}
		sub := append([]float64(nil), demand...)
		cost := 0.0
		for i := len(order) - 1; i >= 1; i-- {
			u := order[i]
			p := parent[u]
			sub[p] += sub[u]
			_, _, unit := in.Catalog.BestCableConfig(sub[u])
			cost += unit * dist[u][p]
			if cost >= best {
				return // prune
			}
		}
		if cost < best {
			best = cost
			bestParent = append(bestParent[:0], parent...)
		}
	}
	var rec func(pos int)
	rec = func(pos int) {
		if pos == len(seq) {
			evaluate()
			return
		}
		for v := 0; v < m; v++ {
			seq[pos] = v
			rec(pos + 1)
		}
	}
	rec(0)
	return best, append([]int(nil), bestParent...), nil
}

// buildTreeFromParents materializes a Network from a parent array as
// returned by exactTreeOPT.
func buildTreeFromParents(in *Instance, parent []int) (*Network, error) {
	g := newNetworkSkeleton(in)
	for v := 1; v < len(parent); v++ {
		p := parent[v]
		if p < 0 || p >= len(parent) {
			return nil, fmt.Errorf("access: bad parent %d for node %d", p, v)
		}
		nv, np := g.Node(v), g.Node(p)
		d := geom.Point{X: nv.X, Y: nv.Y}.Dist(geom.Point{X: np.X, Y: np.Y})
		g.AddEdge(graph.Edge{U: p, V: v, Weight: d, Cable: -1})
	}
	return finishTree(in, g)
}
