package robust

import (
	"repro/internal/graph"
)

// dsu is the union-find under the timeline engine (and so under every
// LCC sweep): a union-by-size disjoint-set forest over int32 ids that
// tracks best, the largest set size. Adds and unions only grow sets, so
// best only grows until a reset or a rollback sets it back.
//
// A forest is either plain or journaled. A plain forest compresses
// paths by halving and cannot undo anything; it serves one-epoch
// timelines, which build it once. A journaled forest records each link
// so rollback can restore an earlier base, and its finds leave paths
// alone: halving could re-point a node past a link that rollback later
// cuts. Union by size alone keeps every path O(log n).
type dsu struct {
	parent []int32
	size   []int32
	best   int
	// ops counts forest operations: add calls plus union calls.
	ops int
	// journaled marks a forest that records links in log; setting it
	// makes the forest as it stands the base that rollback restores.
	journaled bool
	// log holds the child root of every link made since the base, in
	// link order.
	log []int32
}

func newDSU(n int) *dsu {
	return &dsu{parent: make([]int32, n), size: make([]int32, n)}
}

// reset forgets every set so the forest can be built over a new state:
// the one rebuild of a plain forest, or the base of a journaled one.
// Stale parent entries are left in place: add re-initializes each node
// that is part of the new state, and find/union are only ever called on
// added nodes.
func (d *dsu) reset() { d.best = 0 }

// rollback undoes every journaled link, newest first, and sets best to
// base, the largest set size of the forest when journaling began.
// Nodes added since then are left as stale singletons: the caller
// re-adds whichever of them are live before using them.
func (d *dsu) rollback(base int) {
	for i := len(d.log) - 1; i >= 0; i-- {
		rv := d.log[i]
		ru := d.parent[rv]
		d.size[ru] -= d.size[rv]
		d.parent[rv] = rv
	}
	d.log = d.log[:0]
	d.best = base
}

// add activates v as a singleton set.
func (d *dsu) add(v int) {
	d.ops++
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

// root is find without path compression, for journaled forests.
func (d *dsu) root(v int32) int32 {
	for d.parent[v] != v {
		v = d.parent[v]
	}
	return v
}

// union merges the sets of u and v, updating best.
func (d *dsu) union(u, v int32) {
	d.ops++
	var ru, rv int32
	if d.journaled {
		ru, rv = d.root(u), d.root(v)
	} else {
		ru, rv = d.find(u), d.find(v)
	}
	if ru == rv {
		return
	}
	if d.size[ru] < d.size[rv] {
		ru, rv = rv, ru
	}
	d.parent[rv] = ru
	d.size[ru] += d.size[rv]
	if d.journaled {
		d.log = append(d.log, rv)
	}
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
