// Package graph provides the undirected weighted graph substrate shared by
// every topology model in this repository. A Graph is the builder:
// adjacency storage with node and edge attributes, edited while a model
// grows. Its one reachability walk is ConnectedComponents, which the
// connected, tree and forest predicates read; bridges, betweenness and
// minimum spanning trees also run on it. Every other traversal runs on
// the frozen CSR snapshot (Freeze): its BFS, Dijkstra and
// masked-component kernels.
//
// Graphs are node-indexed: nodes are dense integers [0, N). This matches
// how the generators work (nodes arrive incrementally and never leave) and
// keeps the algorithms allocation-light.
package graph

import (
	"fmt"
	"math"
)

// NodeKind annotates a node's role in an ISP topology. Kinds are advisory:
// algorithms in this package ignore them, but the ISP and peering models
// use them to express hierarchy.
type NodeKind uint8

// Node kinds, from the top of the ISP hierarchy down.
const (
	KindUnknown  NodeKind = iota
	KindCore              // backbone (WAN) router
	KindPOP               // point of presence / metro gateway
	KindConc              // concentrator / aggregation router (MAN)
	KindCustomer          // customer access node (LAN)
	KindPeering           // inter-ISP peering point
)

// String returns a short human-readable name for the kind.
func (k NodeKind) String() string {
	switch k {
	case KindCore:
		return "core"
	case KindPOP:
		return "pop"
	case KindConc:
		return "conc"
	case KindCustomer:
		return "customer"
	case KindPeering:
		return "peering"
	default:
		return "unknown"
	}
}

// Node carries per-node annotation. X, Y are planar coordinates when the
// graph is geographic (all generators in this repo are); Capacity is an
// abstract processing capacity used by the routing model.
type Node struct {
	Kind     NodeKind
	X, Y     float64
	Capacity float64
	Label    string
}

// Edge is one undirected edge. Weight is the routing metric (usually
// Euclidean length), Capacity the provisioned bandwidth, and Cable an
// index into an external cable catalog (-1 when not applicable).
type Edge struct {
	U, V     int
	Weight   float64
	Capacity float64
	Cable    int
}

// halfEdge is the adjacency entry: the neighbour and the edge index.
type halfEdge struct {
	to   int
	edge int
}

// Graph is an undirected weighted graph with dense integer nodes.
// The zero value is an empty graph ready to use.
type Graph struct {
	nodes []Node
	edges []Edge
	adj   [][]halfEdge
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	return &Graph{
		nodes: make([]Node, 0, n),
		adj:   make([][]halfEdge, 0, n),
	}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes: append([]Node(nil), g.nodes...),
		edges: append([]Edge(nil), g.edges...),
		adj:   make([][]halfEdge, len(g.adj)),
	}
	for i, a := range g.adj {
		c.adj[i] = append([]halfEdge(nil), a...)
	}
	return c
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddNode appends a node and returns its id.
func (g *Graph) AddNode(n Node) int {
	g.nodes = append(g.nodes, n)
	g.adj = append(g.adj, nil)
	return len(g.nodes) - 1
}

// Node returns a pointer to node u's annotation for in-place updates.
func (g *Graph) Node(u int) *Node { return &g.nodes[u] }

// AddEdge inserts an undirected edge and returns its index. Self-loops are
// rejected; parallel edges are permitted (the buy-at-bulk model installs
// multiple cables between the same endpoints).
func (g *Graph) AddEdge(e Edge) int {
	if e.U == e.V {
		panic(fmt.Sprintf("graph: self-loop on node %d", e.U))
	}
	if e.U < 0 || e.U >= len(g.nodes) || e.V < 0 || e.V >= len(g.nodes) {
		panic(fmt.Sprintf("graph: edge (%d,%d) references missing node", e.U, e.V))
	}
	id := len(g.edges)
	g.edges = append(g.edges, e)
	g.adj[e.U] = append(g.adj[e.U], halfEdge{to: e.V, edge: id})
	g.adj[e.V] = append(g.adj[e.V], halfEdge{to: e.U, edge: id})
	return id
}

// Edge returns a pointer to edge i for in-place updates.
func (g *Graph) Edge(i int) *Edge { return &g.edges[i] }

// Edges returns the edge slice. Callers must not append; mutating weights
// or capacities in place is allowed.
func (g *Graph) Edges() []Edge { return g.edges }

// Degree returns the number of incident edges of u (parallel edges count
// separately).
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Degrees returns the degree sequence indexed by node.
func (g *Graph) Degrees() []int {
	d := make([]int, len(g.nodes))
	for i := range d {
		d[i] = len(g.adj[i])
	}
	return d
}

// MaxDegree returns the largest node degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for i := range g.adj {
		if len(g.adj[i]) > max {
			max = len(g.adj[i])
		}
	}
	return max
}

// Neighbors calls fn for each incident edge of u with the neighbour id and
// edge index. Iteration order is insertion order.
func (g *Graph) Neighbors(u int, fn func(v, edgeID int)) {
	for _, h := range g.adj[u] {
		fn(h.to, h.edge)
	}
}

// HasEdge reports whether any edge connects u and v. Out-of-range ids
// report false.
func (g *Graph) HasEdge(u, v int) bool { return g.findEdge(u, v) >= 0 }

// FindEdge returns the index of some edge between u and v, or -1.
// Out-of-range ids report -1.
func (g *Graph) FindEdge(u, v int) int { return g.findEdge(u, v) }

// findEdge is the shared bounds-checked adjacency scan under HasEdge and
// FindEdge, walking the shorter of the two lists.
func (g *Graph) findEdge(u, v int) int {
	if !g.boundedIndex(u) || !g.boundedIndex(v) {
		return -1
	}
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, h := range g.adj[u] {
		if h.to == v {
			return h.edge
		}
	}
	return -1
}

// EuclideanWeights sets every edge's weight to the Euclidean distance
// between its endpoints' coordinates.
func (g *Graph) EuclideanWeights() {
	for i := range g.edges {
		e := &g.edges[i]
		dx := g.nodes[e.U].X - g.nodes[e.V].X
		dy := g.nodes[e.U].Y - g.nodes[e.V].Y
		e.Weight = math.Hypot(dx, dy)
	}
}
