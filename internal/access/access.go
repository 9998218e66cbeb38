// Package access implements the paper's §4 case study: the buy-at-bulk
// network access design problem and the randomized approximation in the
// spirit of Meyerson–Munagala–Plotkin ("Designing networks incrementally",
// the paper's reference [24]), plus the baseline heuristics and lower
// bounds used to evaluate it.
//
// Problem (paper §4.1, after Salman et al. [26] and Andrews–Zhang [2]):
// connect spatially distributed customers, each with a traffic demand, to
// a core node using cables drawn from a catalog of K types. Cable type k
// has capacity u_k, fixed installation cost σ_k per unit length, and
// marginal usage cost δ_k per unit flow per unit length, exhibiting
// economies of scale:
//
//	u_1 ≤ u_2 ≤ … ≤ u_K,   σ_1 ≤ σ_2 ≤ … ≤ σ_K,   δ_1 > δ_2 > … > δ_K.
//
// Routing and cable installation must be decided together; the problem is
// NP-hard. The paper's preliminary finding (§4.2) is that the randomized
// approximation "yields tree topologies with exponential node degree
// distributions" — experiment E2 regenerates exactly that.
package access

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
)

// CableType is one {capacity, cost} option from the paper's §4.1.
type CableType struct {
	Name     string
	Capacity float64 // u_k: max flow carried by one cable
	Install  float64 // σ_k: fixed cost per unit length
	Usage    float64 // δ_k: cost per unit flow per unit length
}

// Catalog is an ordered set of cable types satisfying the buy-at-bulk
// economies-of-scale conditions.
type Catalog []CableType

// Validate checks the economies-of-scale ordering required by §4.1.
func (c Catalog) Validate() error {
	if len(c) == 0 {
		return fmt.Errorf("access: empty cable catalog")
	}
	for i, t := range c {
		if t.Capacity <= 0 || t.Install <= 0 || t.Usage <= 0 {
			return fmt.Errorf("access: cable %d (%s) has non-positive parameters", i, t.Name)
		}
		if i == 0 {
			continue
		}
		p := c[i-1]
		if t.Capacity < p.Capacity {
			return fmt.Errorf("access: capacities not non-decreasing at %d", i)
		}
		if t.Install < p.Install {
			return fmt.Errorf("access: install costs not non-decreasing at %d", i)
		}
		if t.Usage >= p.Usage {
			return fmt.Errorf("access: usage costs not strictly decreasing at %d", i)
		}
	}
	return nil
}

// DefaultCatalog returns the "fictitious, yet realistic" cable catalog in
// the sense of the paper's footnote 8: parameters consistent with the
// algorithm's assumptions and the (2003) marketplace — four SONET-like
// tiers with strong economies of scale. Capacities are in demand units
// (think OC-3 ≈ 155 Mb/s ≡ 1.0).
func DefaultCatalog() Catalog {
	return Catalog{
		{Name: "oc3", Capacity: 1, Install: 1.0, Usage: 1.0},
		{Name: "oc12", Capacity: 4, Install: 2.2, Usage: 0.35},
		{Name: "oc48", Capacity: 16, Install: 4.8, Usage: 0.12},
		{Name: "oc192", Capacity: 64, Install: 10.0, Usage: 0.04},
	}
}

// BestCableConfig returns, for a flow f on a unit-length edge, the cable
// type and parallel count minimizing ceil(f/u_k)*σ_k + δ_k*f, with ties
// broken toward the smaller (cheaper-to-install) type. Zero flow still
// needs one cable of the smallest type (the edge exists).
func (c Catalog) BestCableConfig(f float64) (kind, count int, cost float64) {
	if f < 0 {
		panic("access: negative flow")
	}
	bestK, bestN, bestC := -1, 0, math.Inf(1)
	for k, t := range c {
		n := 1
		if f > 0 {
			n = int(math.Ceil(f / t.Capacity))
			if n < 1 {
				n = 1
			}
		}
		cost := float64(n)*t.Install + t.Usage*f
		if cost < bestC {
			bestK, bestN, bestC = k, n, cost
		}
	}
	return bestK, bestN, bestC
}

// Customer is a demand point.
type Customer struct {
	Loc    geom.Point
	Demand float64
}

// Instance is one buy-at-bulk access design problem: customers to be
// connected to a single core (sink) node.
type Instance struct {
	Root      geom.Point
	Customers []Customer
	Catalog   Catalog
}

// Validate reports an instance error, or nil.
func (in *Instance) Validate() error {
	if err := in.Catalog.Validate(); err != nil {
		return err
	}
	if len(in.Customers) == 0 {
		return fmt.Errorf("access: no customers")
	}
	for i, c := range in.Customers {
		if c.Demand < 0 {
			return fmt.Errorf("access: customer %d has negative demand", i)
		}
	}
	return nil
}

// TotalDemand sums customer demands.
func (in *Instance) TotalDemand() float64 {
	s := 0.0
	for _, c := range in.Customers {
		s += c.Demand
	}
	return s
}

// Network is a solved access design: a graph whose node 0 is the root and
// nodes 1..n are the customers in instance order, with per-edge flow and
// cable config.
type Network struct {
	Graph *graph.Graph
	// Flow[i] is the traffic on edge i (toward the root).
	Flow []float64
	// CableKind[i] / CableCount[i] give the installed configuration.
	CableKind  []int
	CableCount []int
	// InstallCost + UsageCost = TotalCost().
	InstallCost float64
	UsageCost   float64

	// evals and cells count the candidates MMPIncremental's attachment
	// index evaluated and the cells whose bound it tested; the package
	// benchmarks report them.
	evals, cells int
}

// TotalCost returns installation plus usage cost.
func (n *Network) TotalCost() float64 { return n.InstallCost + n.UsageCost }

// newNetworkSkeleton builds the node set for an instance: root then
// customers, returning the graph.
func newNetworkSkeleton(in *Instance) *graph.Graph {
	g := graph.New(len(in.Customers) + 1)
	g.AddNode(graph.Node{Kind: graph.KindCore, X: in.Root.X, Y: in.Root.Y})
	for _, c := range in.Customers {
		g.AddNode(graph.Node{Kind: graph.KindCustomer, X: c.Loc.X, Y: c.Loc.Y, Capacity: c.Demand})
	}
	return g
}

// finishTree computes flows, cable assignment and costs for a tree
// network rooted at node 0, where node i>0's demand is the node's
// Capacity annotation. The graph must be a tree spanning all nodes.
func finishTree(in *Instance, g *graph.Graph) (*Network, error) {
	if !g.IsTree() {
		return nil, fmt.Errorf("access: solution graph is not a tree (%d nodes, %d edges)", g.NumNodes(), g.NumEdges())
	}
	n := g.NumNodes()
	// Order nodes by decreasing BFS depth so child flows are ready before
	// their parents.
	depth, parent := g.BFS(0)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Counting sort by depth, deepest first.
	maxD := 0
	for _, d := range depth {
		if d > maxD {
			maxD = d
		}
	}
	buckets := make([][]int, maxD+1)
	for v, d := range depth {
		if d < 0 {
			return nil, fmt.Errorf("access: node %d unreachable from root", v)
		}
		buckets[d] = append(buckets[d], v)
	}
	idx := 0
	for d := maxD; d >= 0; d-- {
		for _, v := range buckets[d] {
			order[idx] = v
			idx++
		}
	}

	subDemand := make([]float64, n)
	for v := 0; v < n; v++ {
		subDemand[v] = g.Node(v).Capacity
	}
	net := &Network{
		Graph:      g,
		Flow:       make([]float64, g.NumEdges()),
		CableKind:  make([]int, g.NumEdges()),
		CableCount: make([]int, g.NumEdges()),
	}
	for _, v := range order {
		if v == 0 {
			continue
		}
		p := parent[v]
		eid := g.FindEdge(v, p)
		if eid < 0 {
			return nil, fmt.Errorf("access: missing parent edge for node %d", v)
		}
		f := subDemand[v]
		subDemand[p] += f
		kind, count, unitCost := in.Catalog.BestCableConfig(f)
		length := g.Edge(eid).Weight
		net.Flow[eid] = f
		net.CableKind[eid] = kind
		net.CableCount[eid] = count
		net.InstallCost += float64(count) * in.Catalog[kind].Install * length
		net.UsageCost += in.Catalog[kind].Usage * f * length
		_ = unitCost
		g.Edge(eid).Capacity = float64(count) * in.Catalog[kind].Capacity
		g.Edge(eid).Cable = kind
	}
	return net, nil
}

// LowerBound returns a valid lower bound on the optimal cost of the
// instance: every unit of demand must travel at least the straight-line
// distance to the root at no less than the cheapest usage rate δ_K, and
// any feasible network must contain a connected subgraph spanning root
// and customers, whose length is at least half the terminal MST, installed
// at no less than σ_1 per unit length.
func LowerBound(in *Instance) float64 {
	routing := 0.0
	for _, c := range in.Customers {
		routing += c.Demand * c.Loc.Dist(in.Root)
	}
	routing *= in.Catalog[len(in.Catalog)-1].Usage

	xs := make([]float64, len(in.Customers)+1)
	ys := make([]float64, len(in.Customers)+1)
	xs[0], ys[0] = in.Root.X, in.Root.Y
	for i, c := range in.Customers {
		xs[i+1], ys[i+1] = c.Loc.X, c.Loc.Y
	}
	mstLen := 0.0
	for _, p := range graph.EuclideanMST(xs, ys) {
		mstLen += math.Hypot(xs[p[0]]-xs[p[1]], ys[p[0]]-ys[p[1]])
	}
	install := in.Catalog[0].Install * mstLen / 2
	return routing + install
}
