package graph

import "sort"

// UnionFind is a disjoint-set forest with union by rank and path
// compression.
type UnionFind struct {
	parent []int
	rank   []int
}

// NewUnionFind returns n singleton sets {0}..{n-1}.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int, n),
		rank:   make([]int, n),
	}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y and reports whether a merge happened.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	return true
}

// KruskalMST returns the edge indices of a minimum spanning forest of g by
// weight, and the total weight. For a connected graph this is a spanning
// tree with exactly n-1 edges.
func (g *Graph) KruskalMST() (edgeIDs []int, total float64) {
	order := make([]int, g.NumEdges())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return g.edges[order[a]].Weight < g.edges[order[b]].Weight
	})
	uf := NewUnionFind(g.NumNodes())
	for _, id := range order {
		e := g.edges[id]
		if uf.Union(e.U, e.V) {
			edgeIDs = append(edgeIDs, id)
			total += e.Weight
		}
	}
	return edgeIDs, total
}

// EuclideanMST builds the MST of a complete Euclidean graph over the
// node coordinates without materializing all O(n^2) edges: dense Prim in
// O(n^2) time, O(n) space. It returns the (u, v) pairs of the tree.
func EuclideanMST(xs, ys []float64) [][2]int {
	n := len(xs)
	if n != len(ys) {
		panic("graph: EuclideanMST coordinate length mismatch")
	}
	if n == 0 {
		return nil
	}
	inTree := make([]bool, n)
	bestTo := make([]int, n)
	bestD := make([]float64, n)
	for i := range bestD {
		bestD[i] = Inf
		bestTo[i] = -1
	}
	bestD[0] = 0
	out := make([][2]int, 0, n-1)
	for iter := 0; iter < n; iter++ {
		u := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && (u == -1 || bestD[v] < bestD[u]) {
				u = v
			}
		}
		inTree[u] = true
		if bestTo[u] >= 0 {
			out = append(out, [2]int{bestTo[u], u})
		}
		for v := 0; v < n; v++ {
			if inTree[v] {
				continue
			}
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			d := dx*dx + dy*dy
			if d < bestD[v] {
				bestD[v] = d
				bestTo[v] = u
			}
		}
	}
	return out
}
