package graph

import "unsafe"

// MemBytes estimates the graph's resident heap footprint in bytes: the
// node, edge and adjacency backing arrays (at capacity, which is what
// the allocator actually holds) plus label string storage. Together
// with CSR.MemBytes it is the per-entry charge of the scenario engine's
// byte-budgeted snapshot cache.
func (g *Graph) MemBytes() int64 {
	b := int64(unsafe.Sizeof(Node{}))*int64(cap(g.nodes)) +
		int64(unsafe.Sizeof(Edge{}))*int64(cap(g.edges)) +
		int64(unsafe.Sizeof([]halfEdge(nil)))*int64(cap(g.adj))
	for _, a := range g.adj {
		b += int64(unsafe.Sizeof(halfEdge{})) * int64(cap(a))
	}
	for i := range g.nodes {
		b += int64(len(g.nodes[i].Label))
	}
	return b
}

// MemBytes reports the snapshot's heap footprint in bytes: the int32 CSR
// arrays (rowStart, nbr, edgeID and the sorted bfsNbr mirror) plus the
// float64 weights. Freeze allocates every array at its final length, so
// for a graph of n nodes and m edges this is exactly 4(n+1) + 40m.
// Pooled per-workspace scratch (including the parallel BFS shard
// counters) is deliberately not charged — it is shared across
// snapshots, not retained per snapshot.
func (c *CSR) MemBytes() int64 {
	const i32, f64 = 4, 8
	n := cap(c.rowStart) + cap(c.nbr) + cap(c.edgeID) + cap(c.bfsNbr)
	return i32*int64(n) + f64*int64(cap(c.weight))
}
