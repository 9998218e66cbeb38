package access

import (
	"math"
	"sort"

	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/graph"
)

// RingMetro designs the metro access network under a SONET-style Level-2
// ring technology instead of point-to-point cables — the §2.4 question
// ("how important the careful incorporation of Level-2 technologies and
// economics is") made concrete. Customers are partitioned into rings of
// at most ringSize members by an angular sweep around the core (the
// classic SONET planning heuristic); each ring is a cycle through the
// core node.
//
// The cost model reflects SONET protection: every edge of a ring must be
// provisioned for the ring's entire demand (traffic may traverse either
// direction around the ring after a cut), so each ring edge gets the
// cheapest cable configuration covering the full ring demand.
//
// The output is 2-edge-connected by construction whenever every ring has
// at least two customers — the Level-2 constraint buys survivability but
// breaks the cost-optimal tree shape, the same effect as footnote 7.
func RingMetro(in *Instance, ringSize int) (*Network, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if ringSize < 2 {
		return nil, errs.BadParamf("access: ring size must be >= 2")
	}
	g := newNetworkSkeleton(in)
	n := len(in.Customers)

	// Angular sweep: sort customers by angle around the root, chunk into
	// rings of ringSize.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	angle := func(c Customer) float64 {
		return math.Atan2(c.Loc.Y-in.Root.Y, c.Loc.X-in.Root.X)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return angle(in.Customers[order[a]]) < angle(in.Customers[order[b]])
	})

	net := &Network{Graph: g}
	addEdge := func(u, v int, ringDemand float64) {
		nu, nv := g.Node(u), g.Node(v)
		d := geom.Point{X: nu.X, Y: nu.Y}.Dist(geom.Point{X: nv.X, Y: nv.Y})
		kind, count, _ := in.Catalog.BestCableConfig(ringDemand)
		g.AddEdge(graph.Edge{
			U: u, V: v, Weight: d,
			Capacity: float64(count) * in.Catalog[kind].Capacity,
			Cable:    kind,
		})
		net.Flow = append(net.Flow, ringDemand)
		net.CableKind = append(net.CableKind, kind)
		net.CableCount = append(net.CableCount, count)
		net.InstallCost += float64(count) * in.Catalog[kind].Install * d
		net.UsageCost += in.Catalog[kind].Usage * ringDemand * d
	}

	for start := 0; start < n; start += ringSize {
		end := start + ringSize
		if end > n {
			end = n
		}
		members := order[start:end]
		ringDemand := 0.0
		for _, ci := range members {
			ringDemand += in.Customers[ci].Demand
		}
		// Cycle: root -> members in angular order -> root. A single-member
		// "ring" degenerates to a protected dual link (parallel edges).
		prev := 0
		for _, ci := range members {
			addEdge(prev, ci+1, ringDemand)
			prev = ci + 1
		}
		addEdge(prev, 0, ringDemand)
	}
	return net, nil
}

// RingVsTreeReport compares the ring design against a tree design of the
// same instance: the Level-2 ablation experiment E10 prints these fields.
type RingVsTreeReport struct {
	TreeCost      float64
	RingCost      float64
	CostPremium   float64 // RingCost/TreeCost - 1
	TreeIsTree    bool
	Ring2EdgeConn bool
	TreeMaxDegree int
	RingMaxDegree int
}

// CompareRingVsTree solves the instance both ways (MMP tree and SONET
// rings) and reports the §2.4 tradeoff.
func CompareRingVsTree(in *Instance, seed int64, ringSize int) (*RingVsTreeReport, error) {
	tree, err := MMPIncremental(in, seed)
	if err != nil {
		return nil, err
	}
	ring, err := RingMetro(in, ringSize)
	if err != nil {
		return nil, err
	}
	r := &RingVsTreeReport{
		TreeCost:      tree.TotalCost(),
		RingCost:      ring.TotalCost(),
		TreeIsTree:    tree.Graph.IsTree(),
		Ring2EdgeConn: ring.Graph.IsTwoEdgeConnected(),
		TreeMaxDegree: tree.Graph.MaxDegree(),
		RingMaxDegree: ring.Graph.MaxDegree(),
	}
	if r.TreeCost > 0 {
		r.CostPremium = r.RingCost/r.TreeCost - 1
	}
	return r, nil
}
