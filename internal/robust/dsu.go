package robust

import (
	"repro/internal/graph"
)

// dsu is the union-find under the timeline engine (and so under every
// LCC sweep): a union-by-size disjoint-set forest with path halving
// over int32 ids, tracking the largest set size seen so far (which only
// grows as items are re-added — exactly the reverse-LCC invariant).
type dsu struct {
	parent []int32
	size   []int32
	best   int
}

func newDSU(n int) *dsu {
	return &dsu{parent: make([]int32, n), size: make([]int32, n)}
}

// reset forgets every set so the forest can be rebuilt over a new base
// state — the per-epoch rebuild of the timeline engine. Stale parent
// entries are left in place: add re-initializes each node that is part
// of the new state, and find/union are only ever called on added nodes.
func (d *dsu) reset() { d.best = 0 }

// add activates v as a singleton set.
func (d *dsu) add(v int) {
	d.parent[v] = int32(v)
	d.size[v] = 1
	if d.best < 1 {
		d.best = 1
	}
}

func (d *dsu) find(v int32) int32 {
	for d.parent[v] != v {
		d.parent[v] = d.parent[d.parent[v]] // path halving
		v = d.parent[v]
	}
	return v
}

// union merges the sets of u and v, updating best.
func (d *dsu) union(u, v int32) {
	ru, rv := d.find(u), d.find(v)
	if ru == rv {
		return
	}
	if d.size[ru] < d.size[rv] {
		ru, rv = rv, ru
	}
	d.parent[rv] = ru
	d.size[ru] += d.size[rv]
	if int(d.size[ru]) > d.best {
		d.best = int(d.size[ru])
	}
}

// edgeEndpoints recovers each edge's endpoints from the half-edge
// arrays: every edge id appears once per direction, so the u < v visit
// selects one canonical orientation.
func edgeEndpoints(c *graph.CSR) (endU, endV []int32) {
	m := c.NumEdges()
	endU = make([]int32, m)
	endV = make([]int32, m)
	for v := 0; v < c.NumNodes(); v++ {
		c.Neighbors(v, func(u, e int, _ float64) {
			if u < v {
				endU[e], endV[e] = int32(v), int32(u)
			}
		})
	}
	return endU, endV
}
