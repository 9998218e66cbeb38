// Package isp assembles a full "realistic, but fictitious" single-ISP
// router-level topology the way the paper's §2.2 describes: the network
// decomposes into a backbone (WAN) over points of presence, metro
// distribution networks (MAN) built by buy-at-bulk access design, and
// customers (LAN attachment points); the buildout is driven by population
// centers and a cost- or profit-based optimization formulation.
package isp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/errs"

	"repro/internal/access"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/trafficreg"
)

// Formulation selects the paper's §2.2 economic objective.
type Formulation int

// The two formulations of §2.2.
const (
	// CostBased builds a network that minimizes cost subject to serving
	// every customer ("minimize cost subject to satisfying demand").
	CostBased Formulation = iota
	// ProfitBased serves customers only while they are profitable:
	// buildout stops "where marginal revenue meets marginal cost".
	ProfitBased
)

// String names the formulation.
func (f Formulation) String() string {
	if f == ProfitBased {
		return "profit-based"
	}
	return "cost-based"
}

// POPPlacement selects how POP cities are chosen (the E5 ablation).
type POPPlacement int

// POP placement strategies.
const (
	// TopCities puts POPs in the most populous cities.
	TopCities POPPlacement = iota
	// KMedian places POPs by population-weighted k-means over city
	// locations, then snaps each center to its nearest city.
	KMedian
)

// Config parameterizes the ISP designer.
type Config struct {
	Geography *traffic.Geography
	NumPOPs   int
	Customers int // total customer count across the footprint
	Seed      int64
	Catalog   access.Catalog // nil = access.DefaultCatalog()

	Placement POPPlacement

	// Backbone economics: installing a backbone link costs
	// BackboneCostPerLength per unit length; PerfWeight prices one unit
	// of demand-weighted average path length. The designer starts from a
	// POP MST and greedily adds the link with the best perf-gain minus
	// cost, while positive (up to MaxExtraBackboneLinks).
	BackboneCostPerLength float64
	PerfWeight            float64
	MaxExtraBackboneLinks int

	// MaxPorts caps router degree in metro access trees (technology
	// constraint, §2.1). 0 = unconstrained. A POP's backbone links count
	// toward its cap. A customer that finds no router with a free port
	// attaches to its POP anyway, over the cap; Design.PortViolations
	// counts those customers.
	MaxPorts int

	// MetroRingSize >= 2 builds each metro as SONET-style protected
	// rings of at most that many customers (§2.4 Level-2 technology)
	// instead of buy-at-bulk trees. Incompatible with the profit
	// formulation (ring admission is all-or-nothing).
	MetroRingSize int

	Formulation Formulation
	// PricePerDemand is revenue per unit of customer demand (profit
	// formulation only).
	PricePerDemand float64

	// Demand names the registered traffic model (internal/trafficreg)
	// whose inter-metro demand drives the backbone cost/performance
	// augmentation. The zero Selection is gravity with its defaults —
	// the paper's §2.2 canonical input.
	Demand trafficreg.Selection

	// MetroSpread is the Gaussian scatter of customers around their city
	// center (default 0.03).
	MetroSpread float64
	// DemandMin/DemandMax/DemandShape parameterize per-customer demand
	// (bounded Pareto; constant DemandMin if DemandMax <= DemandMin).
	DemandMin, DemandMax, DemandShape float64
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Geography == nil || len(out.Geography.Cities) == 0 {
		return out, fmt.Errorf("isp: missing geography")
	}
	if out.NumPOPs < 1 {
		return out, fmt.Errorf("isp: need at least one POP")
	}
	if out.NumPOPs > len(out.Geography.Cities) {
		out.NumPOPs = len(out.Geography.Cities)
	}
	if out.Customers < 0 {
		return out, fmt.Errorf("isp: negative customer count")
	}
	if out.Catalog == nil {
		out.Catalog = access.DefaultCatalog()
	}
	if err := out.Catalog.Validate(); err != nil {
		return out, err
	}
	if out.BackboneCostPerLength <= 0 {
		out.BackboneCostPerLength = 20
	}
	if out.MetroSpread <= 0 {
		out.MetroSpread = 0.03
	}
	if out.DemandMin <= 0 {
		out.DemandMin = 1
	}
	if out.Formulation == ProfitBased && out.PricePerDemand <= 0 {
		return out, fmt.Errorf("isp: profit formulation needs a positive price")
	}
	if out.MetroRingSize == 1 || out.MetroRingSize < 0 {
		return out, fmt.Errorf("isp: MetroRingSize must be 0 (trees) or >= 2")
	}
	if out.MetroRingSize >= 2 && out.Formulation == ProfitBased {
		return out, fmt.Errorf("isp: metro rings are incompatible with the profit formulation")
	}
	// Validate the demand model up front so a bad selection fails before
	// any buildout.
	_, _, err := trafficreg.Default().Resolve(out.Demand)
	return out, err
}

// Design is a fully built ISP.
type Design struct {
	Graph *graph.Graph
	// POPs holds the node ids of the POP routers; POPCity[i] is the city
	// index (in Geography.Cities) POP i serves.
	POPs    []int
	POPCity []int
	// BackboneEdges are edge indices of WAN links.
	BackboneEdges []int

	// Costs: metro access install+usage, plus backbone install.
	AccessCost   float64
	BackboneCost float64

	// Offered vs served customers and demand (differ only under the
	// profit formulation).
	CustomersOffered int
	CustomersServed  int
	DemandOffered    float64
	DemandServed     float64

	// Profit-formulation accounting.
	Revenue float64
	Profit  float64

	// PortViolations counts the customers attached to their POP over
	// the MaxPorts cap because no router in the metro had a free port.
	PortViolations int

	// evals and cells count the candidates the metro attachment indexes
	// evaluated and the cells whose bound they tested; the package
	// benchmarks report them.
	evals, cells int
}

// TotalCost is access plus backbone cost.
func (d *Design) TotalCost() float64 { return d.AccessCost + d.BackboneCost }

// BuildContext designs the ISP. The context is checked between design
// stages, before each metro buildout and while routing the backbone
// demand, returning an errs.ErrCanceled-wrapping error when it is done.
func BuildContext(ctx context.Context, cfg Config) (*Design, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	geo := c.Geography
	des := &Design{Graph: graph.New(0)}

	// --- 1. POP placement -------------------------------------------------
	popCities := placePOPs(&c)
	des.POPCity = popCities

	for _, ci := range popCities {
		city := geo.Cities[ci]
		id := des.Graph.AddNode(graph.Node{
			Kind:  graph.KindPOP,
			X:     city.Loc.X,
			Y:     city.Loc.Y,
			Label: city.Name,
		})
		des.POPs = append(des.POPs, id)
	}

	// --- 2. Backbone design -----------------------------------------------
	if err := errs.Ctx(ctx); err != nil {
		return nil, fmt.Errorf("isp: before backbone design: %w", err)
	}
	if err := buildBackbone(ctx, &c, des); err != nil {
		return nil, err
	}

	// --- 3. Metro access networks ------------------------------------------
	if err := buildMetros(ctx, &c, des); err != nil {
		return nil, err
	}
	return des, nil
}

// placePOPs returns the chosen city indices.
func placePOPs(c *Config) []int {
	geo := c.Geography
	if c.Placement == TopCities || c.NumPOPs >= len(geo.Cities) {
		// Cities are sorted by population descending.
		out := make([]int, c.NumPOPs)
		for i := range out {
			out[i] = i
		}
		return out
	}
	pts := make([]geom.Point, len(geo.Cities))
	ws := make([]float64, len(geo.Cities))
	for i, city := range geo.Cities {
		pts[i] = city.Loc
		ws[i] = city.Population
	}
	centers := access.KMeans(pts, ws, c.NumPOPs, c.Seed, 40)
	used := map[int]bool{}
	out := make([]int, 0, len(centers))
	for _, ctr := range centers {
		best, bestD := -1, math.Inf(1)
		for i, city := range geo.Cities {
			if used[i] {
				continue
			}
			if d := city.Loc.Dist2(ctr); d < bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 {
			used[best] = true
			out = append(out, best)
		}
	}
	sort.Ints(out)
	return out
}

// buildBackbone connects POPs: MST first (cost-minimal spanning), then
// greedy cost/performance augmentation against the configured demand
// model's inter-POP traffic.
func buildBackbone(ctx context.Context, c *Config, des *Design) error {
	g := des.Graph
	k := len(des.POPs)
	if k == 1 {
		return nil
	}
	xs := make([]float64, k)
	ys := make([]float64, k)
	for i, id := range des.POPs {
		xs[i] = g.Node(id).X
		ys[i] = g.Node(id).Y
	}
	addBackbone := func(i, j int) int {
		d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
		eid := g.AddEdge(graph.Edge{
			U: des.POPs[i], V: des.POPs[j], Weight: d,
			Capacity: c.Catalog[len(c.Catalog)-1].Capacity,
			Cable:    len(c.Catalog) - 1,
		})
		des.BackboneEdges = append(des.BackboneEdges, eid)
		des.BackboneCost += c.BackboneCostPerLength * d
		return eid
	}
	inTree := map[[2]int]bool{}
	for _, pr := range graph.EuclideanMST(xs, ys) {
		addBackbone(pr[0], pr[1])
		a, b := pr[0], pr[1]
		if a > b {
			a, b = b, a
		}
		inTree[[2]int{a, b}] = true
	}
	if c.MaxExtraBackboneLinks <= 0 || c.PerfWeight <= 0 {
		return nil
	}
	// Inter-POP demand via the configured registry model restricted to
	// POP cities.
	dm, err := trafficreg.GenerateDemand(ctx, c.Geography, c.Demand, c.Seed)
	if err != nil {
		return fmt.Errorf("isp: backbone demand: %w", err)
	}
	var demands []routing.Demand
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			v := dm[des.POPCity[i]][des.POPCity[j]]
			if v > 0 {
				demands = append(demands, routing.Demand{Src: des.POPs[i], Dst: des.POPs[j], Volume: v})
			}
		}
	}
	if len(demands) == 0 {
		return nil
	}
	avgPath := func() (float64, error) {
		res, err := routing.RouteShortestPathsContext(ctx, g, nil, demands)
		if err != nil {
			return 0, err
		}
		return res.AvgPathWeight, nil
	}
	cur, err := avgPath()
	if err != nil {
		return err
	}
	for added := 0; added < c.MaxExtraBackboneLinks; added++ {
		bestI, bestJ, bestGain := -1, -1, 0.0
		var bestNew float64
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if inTree[[2]int{i, j}] {
					continue
				}
				d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
				// Tentatively add, measure, remove by rebuilding? Graph has
				// no edge removal; evaluate on a clone.
				clone := g.Clone()
				clone.AddEdge(graph.Edge{U: des.POPs[i], V: des.POPs[j], Weight: d})
				res, err := routing.RouteShortestPathsContext(ctx, clone, nil, demands)
				if err != nil {
					return err
				}
				gain := c.PerfWeight*(cur-res.AvgPathWeight) - c.BackboneCostPerLength*d
				if gain > bestGain {
					bestI, bestJ, bestGain = i, j, gain
					bestNew = res.AvgPathWeight
				}
			}
		}
		if bestI < 0 {
			break // no profitable augmentation remains
		}
		addBackbone(bestI, bestJ)
		inTree[[2]int{bestI, bestJ}] = true
		cur = bestNew
	}
	return nil
}

// slotUsage is the attachment-index stat slot holding a metro node's
// usage cost to its POP, fixed once the node attaches.
const slotUsage = 0

// usageTrack tracks slotUsage only.
var usageTrack = [geom.IndexStats]bool{slotUsage: true}

// buildMetros runs buy-at-bulk access design per POP metro and merges the
// results into the design graph.
func buildMetros(ctx context.Context, c *Config, des *Design) error {
	geo := c.Geography
	g := des.Graph
	// Distribute customers over POP cities by population share.
	popGeo := &traffic.Geography{Region: geo.Region}
	for _, ci := range des.POPCity {
		popGeo.Cities = append(popGeo.Cities, geo.Cities[ci])
	}
	alloc := traffic.AllocateCustomers(popGeo, c.Customers)

	deltaBulk := c.Catalog[len(c.Catalog)-1].Usage
	sigmaThin := c.Catalog[0].Install
	best := geom.NewCandList(1)

	for pi, popID := range des.POPs {
		if err := errs.Ctx(ctx); err != nil {
			return fmt.Errorf("isp: metro %d: %w", pi, err)
		}
		nCust := alloc[pi]
		if nCust == 0 {
			continue
		}
		seed := rng.Derive(c.Seed, 1000+pi)
		r := rng.New(seed)
		popNode := g.Node(popID)
		popLoc := geom.Point{X: popNode.X, Y: popNode.Y}
		pts := geo.Region.GaussianCluster(r, popLoc, c.MetroSpread, nCust)

		if c.MetroRingSize >= 2 {
			buildRingMetro(c, des, popID, popLoc, pts, r)
			continue
		}

		// Incremental cost-distance attachment (same rule as
		// access.MMPIncremental) directly into the shared graph, with an
		// optional port cap and — under the profit formulation — an
		// admission test "marginal revenue >= marginal cost". Slot 0 is
		// the POP, slot s the s-th attached customer; the attachment
		// index returns the cheapest by (cost, slot), the first-wins
		// minimum in attach order.
		ix := geom.NewIndex(geom.Bounds(popLoc, pts), len(pts)+1, usageTrack)
		slotNode := append(make([]int, 0, len(pts)+1), popID)
		slotPt := append(make([]geom.Point, 0, len(pts)+1), popLoc)
		usageToRoot := append(make([]float64, 0, len(pts)+1), 0)
		ix.Add(0, popLoc, &[geom.IndexStats]float64{})
		var p geom.Point
		var dem float64
		eval := func(slot int32) {
			if c.MaxPorts > 0 && g.Degree(slotNode[slot]) >= c.MaxPorts {
				return
			}
			d := p.Dist(slotPt[slot])
			best.Consider(int(slot), sigmaThin*d+(usageToRoot[slot]+deltaBulk*d)*dem)
		}
		for _, p = range pts {
			dem = c.DemandMin
			if c.DemandMax > c.DemandMin {
				shape := c.DemandShape
				if shape <= 0 {
					shape = 1.2
				}
				dem = rng.BoundedPareto(r, c.DemandMin, c.DemandMax, shape)
			}
			des.CustomersOffered++
			des.DemandOffered += dem

			best.Reset()
			statW := [geom.IndexStats]float64{slotUsage: dem}
			ix.Search(p, sigmaThin+deltaBulk*dem, &statW, math.Inf(1), best, eval)
			var bestSlot int
			var bestCost float64
			overCap := best.Empty()
			if overCap {
				// All ports exhausted: fall back to the POP itself.
				d := p.Dist(popLoc)
				bestCost = sigmaThin*d + deltaBulk*d*dem
			} else {
				bestSlot, bestCost = best.Best()[0].ID, best.Best()[0].Cost
			}
			if c.Formulation == ProfitBased {
				rev := c.PricePerDemand * dem
				if rev < bestCost {
					continue // unprofitable: do not build
				}
				des.Revenue += rev
			}
			if overCap {
				des.PortViolations++
			}
			d := p.Dist(slotPt[bestSlot])
			id := g.AddNode(graph.Node{Kind: graph.KindCustomer, X: p.X, Y: p.Y, Capacity: dem})
			g.AddEdge(graph.Edge{U: slotNode[bestSlot], V: id, Weight: d, Cable: -1})
			u := usageToRoot[bestSlot] + deltaBulk*d
			ix.Add(int32(len(slotNode)), p, &[geom.IndexStats]float64{slotUsage: u})
			slotNode = append(slotNode, id)
			slotPt = append(slotPt, p)
			usageToRoot = append(usageToRoot, u)
			des.AccessCost += bestCost
			des.CustomersServed++
			des.DemandServed += dem
		}
		des.evals += ix.Evals()
		des.cells += ix.Cells()
	}
	if c.Formulation == ProfitBased {
		des.Profit = des.Revenue - des.TotalCost()
	}
	return nil
}

// buildRingMetro wires one metro as angular-sweep SONET rings through the
// POP (§2.4), mirroring access.RingMetro inside the shared design graph.
func buildRingMetro(c *Config, des *Design, popID int, popLoc geom.Point, pts []geom.Point, r *rand.Rand) {
	g := des.Graph
	demands := make([]float64, len(pts))
	for i := range demands {
		demands[i] = c.DemandMin
		if c.DemandMax > c.DemandMin {
			shape := c.DemandShape
			if shape <= 0 {
				shape = 1.2
			}
			demands[i] = rng.BoundedPareto(r, c.DemandMin, c.DemandMax, shape)
		}
	}
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return math.Atan2(pts[order[a]].Y-popLoc.Y, pts[order[a]].X-popLoc.X) <
			math.Atan2(pts[order[b]].Y-popLoc.Y, pts[order[b]].X-popLoc.X)
	})
	addEdge := func(u, v int, ringDemand float64) {
		nu, nv := g.Node(u), g.Node(v)
		d := geom.Point{X: nu.X, Y: nu.Y}.Dist(geom.Point{X: nv.X, Y: nv.Y})
		kind, count, unit := c.Catalog.BestCableConfig(ringDemand)
		g.AddEdge(graph.Edge{
			U: u, V: v, Weight: d,
			Capacity: float64(count) * c.Catalog[kind].Capacity,
			Cable:    kind,
		})
		des.AccessCost += unit * d
	}
	for start := 0; start < len(order); start += c.MetroRingSize {
		end := start + c.MetroRingSize
		if end > len(order) {
			end = len(order)
		}
		members := order[start:end]
		ringDemand := 0.0
		for _, ci := range members {
			ringDemand += demands[ci]
		}
		prev := popID
		for _, ci := range members {
			id := g.AddNode(graph.Node{
				Kind: graph.KindCustomer,
				X:    pts[ci].X, Y: pts[ci].Y,
				Capacity: demands[ci],
			})
			addEdge(prev, id, ringDemand)
			prev = id
			des.CustomersOffered++
			des.CustomersServed++
			des.DemandOffered += demands[ci]
			des.DemandServed += demands[ci]
		}
		addEdge(prev, popID, ringDemand)
	}
}
