// Package isp assembles a full "realistic, but fictitious" single-ISP
// router-level topology the way the paper's §2.2 describes: the network
// decomposes into a backbone (WAN) over points of presence, metro
// distribution networks (MAN) built by buy-at-bulk access design, and
// customers (LAN attachment points); the buildout is driven by population
// centers and a cost- or profit-based optimization formulation. Metros
// are buy-at-bulk trees; the §2.4 SONET ring alternative is
// access.RingMetro, which the E10 ablation and the ring model run.
package isp

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/errs"

	"repro/internal/access"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/rng"
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
	// DemandMin/DemandMax bound per-customer demand (bounded Pareto of
	// shape 1.2; constant DemandMin if DemandMax <= DemandMin).
	DemandMin, DemandMax float64
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Geography == nil || len(out.Geography.Cities) == 0 {
		return out, errs.BadParamf("isp: missing geography")
	}
	if out.NumPOPs < 1 {
		return out, errs.BadParamf("isp: need at least one POP")
	}
	if out.NumPOPs > len(out.Geography.Cities) {
		out.NumPOPs = len(out.Geography.Cities)
	}
	if out.Customers < 0 {
		return out, errs.BadParamf("isp: negative customer count")
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
		return out, errs.BadParamf("isp: profit formulation needs a positive price")
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
// stages, before each candidate backbone link is priced and before each
// metro buildout, returning an errs.ErrCanceled-wrapping error when it
// is done.
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
// model's inter-POP traffic. Each round prices every missing link by
// the demand-weighted average path length of the backbone holding it
// (pathLabels), checking ctx before each candidate link.
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
	length := func(i, j int) float64 { return math.Hypot(xs[i]-xs[j], ys[i]-ys[j]) }
	addBackbone := func(i, j int) {
		d := length(i, j)
		eid := g.AddEdge(graph.Edge{
			U: des.POPs[i], V: des.POPs[j], Weight: d,
			Capacity: c.Catalog[len(c.Catalog)-1].Capacity,
			Cable:    len(c.Catalog) - 1,
		})
		des.BackboneEdges = append(des.BackboneEdges, eid)
		des.BackboneCost += c.BackboneCostPerLength * d
	}
	inTree := map[[2]int]bool{}
	mst := graph.EuclideanMST(xs, ys)
	for _, pr := range mst {
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
	var demands []popDemand
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if v := dm[des.POPCity[i]][des.POPCity[j]]; v > 0 {
				demands = append(demands, popDemand{src: i, dst: j, vol: v})
			}
		}
	}
	if len(demands) == 0 {
		return nil
	}
	labels := newPathLabels(k, demands)
	for _, pr := range mst {
		labels.add(pr[0], pr[1], length(pr[0], pr[1]))
	}
	cur := labels.avgPath(-1, -1, 0)
	for added := 0; added < c.MaxExtraBackboneLinks; added++ {
		bestI, bestJ, bestGain := -1, -1, 0.0
		var bestNew float64
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if inTree[[2]int{i, j}] {
					continue
				}
				if err := errs.Ctx(ctx); err != nil {
					return fmt.Errorf("isp: backbone link %d-%d: %w", i, j, err)
				}
				d := length(i, j)
				avg := labels.avgPath(i, j, d)
				gain := c.PerfWeight*(cur-avg) - c.BackboneCostPerLength*d
				if gain > bestGain {
					bestI, bestJ, bestGain = i, j, gain
					bestNew = avg
				}
			}
		}
		if bestI < 0 {
			break // no profitable augmentation remains
		}
		addBackbone(bestI, bestJ)
		labels.add(bestI, bestJ, length(bestI, bestJ))
		inTree[[2]int{bestI, bestJ}] = true
		cur = bestNew
	}
	return nil
}

// popDemand is one inter-POP demand, its ends numbered by POP.
type popDemand struct {
	src, dst int
	vol      float64
}

// pathLabels prices backbone links against the inter-POP demand. For
// each source POP it keeps the shortest backbone distance to every POP:
// the least fixed point of d(v) = min over links u–v of d(u) + w, with
// each sum rounded as it is formed. That is the smallest left-to-right
// path sum, which every label-setting or label-correcting search
// reaches, the routing package's Dijkstra kernels included, because
// rounding x + w is monotone in x. Relaxing one more link into a fixed
// point and propagating the decreases reaches the fixed point of the
// backbone that holds the link, so a candidate is priced from labels
// alone: same labels, same sums in the same order, same bits as routing
// every demand on a copy of the backbone with the link added. No parent
// chain is walked, so the zero-weight parent cycles routing must reject
// cannot arise; POPs sit at distinct cities, so no backbone link weighs
// zero anyway.
type pathLabels struct {
	adj     [][]arc // backbone links per POP, both directions
	sources []labelSource
	dist    []float64 // one source's labels with a candidate link
	queue   []int
}

type arc struct {
	to int
	w  float64
}

// labelSource is one source POP: its labels and its demands, in demand
// order.
type labelSource struct {
	dist []float64
	dems []popDemand
}

// newPathLabels returns the labels of k POPs with no backbone link yet,
// for demands grouped by source in demand order.
func newPathLabels(k int, demands []popDemand) *pathLabels {
	pl := &pathLabels{adj: make([][]arc, k), dist: make([]float64, k)}
	for lo := 0; lo < len(demands); {
		hi := lo + 1
		for hi < len(demands) && demands[hi].src == demands[lo].src {
			hi++
		}
		dist := make([]float64, k)
		for v := range dist {
			dist[v] = math.Inf(1)
		}
		dist[demands[lo].src] = 0
		pl.sources = append(pl.sources, labelSource{dist: dist, dems: demands[lo:hi]})
		lo = hi
	}
	return pl
}

// add puts the link i–j of weight w into the backbone and every
// source's labels.
func (pl *pathLabels) add(i, j int, w float64) {
	for _, s := range pl.sources {
		pl.relax(s.dist, i, j, w)
	}
	pl.adj[i] = append(pl.adj[i], arc{j, w})
	pl.adj[j] = append(pl.adj[j], arc{i, w})
}

// avgPath returns the demand-weighted average shortest-path length of
// the backbone with the link i–j of weight w added (i < 0: as it
// stands), summed as routing.RouteShortestPathsContext sums it: volume
// times distance over the reachable demands, in demand order, divided
// by their volume. A source whose labels the link cannot lower keeps
// them as they are.
func (pl *pathLabels) avgPath(i, j int, w float64) float64 {
	var totalW, delivered float64
	for _, s := range pl.sources {
		dist := s.dist
		if i >= 0 && (dist[i]+w < dist[j] || dist[j]+w < dist[i]) {
			dist = append(pl.dist[:0], dist...)
			pl.relax(dist, i, j, w)
		}
		for _, d := range s.dems {
			if math.IsInf(dist[d.dst], 1) {
				continue
			}
			delivered += d.vol
			totalW += d.vol * dist[d.dst]
		}
	}
	if delivered == 0 {
		return 0
	}
	return totalW / delivered
}

// relax lowers dist, one source's fixed point over the backbone, to the
// fixed point over the backbone plus the link i–j of weight w: it
// relaxes the link both ways, then propagates every decrease over the
// backbone until no label falls. At most one way lowers a label, and no
// decrease comes back across the link: a path that crossed it twice
// would hold a cycle, and each rounded sum of a non-negative weight is
// at least the label it starts from.
func (pl *pathLabels) relax(dist []float64, i, j int, w float64) {
	q := pl.queue[:0]
	if d := dist[i] + w; d < dist[j] {
		dist[j] = d
		q = append(q, j)
	} else if d := dist[j] + w; d < dist[i] {
		dist[i] = d
		q = append(q, i)
	}
	for h := 0; h < len(q); h++ {
		u := q[h]
		for _, a := range pl.adj[u] {
			if d := dist[u] + a.w; d < dist[a.to] {
				dist[a.to] = d
				q = append(q, a.to)
			}
		}
	}
	pl.queue = q
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

		// Incremental cost-distance attachment (same rule as
		// access.MMPIncremental) directly into the shared graph, with an
		// optional port cap and — under the profit formulation — an
		// admission test "marginal revenue >= marginal cost". Slot 0 is
		// the POP, slot s the s-th attached customer; the attachment
		// index returns the cheapest by (cost, slot), the first-wins
		// minimum in attach order. A slot whose router reaches MaxPorts
		// is retired from the index's live view, which the search walks;
		// the POP can start full from its backbone links.
		ix := geom.NewIndex(geom.Bounds(popLoc, pts), len(pts)+1, usageTrack)
		slotNode := append(make([]int, 0, len(pts)+1), popID)
		slotPt := append(make([]geom.Point, 0, len(pts)+1), popLoc)
		usageToRoot := append(make([]float64, 0, len(pts)+1), 0)
		usageOf := func(slot int32, v *[geom.IndexStats]float64) { v[slotUsage] = usageToRoot[slot] }
		ix.Add(0, popLoc, &[geom.IndexStats]float64{})
		if c.MaxPorts > 0 && g.Degree(popID) >= c.MaxPorts {
			ix.Retire(0, popLoc, usageOf)
		}
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
				dem = rng.BoundedPareto(r, c.DemandMin, c.DemandMax, 1.2)
			}
			des.CustomersOffered++
			des.DemandOffered += dem

			best.Reset()
			statW := [geom.IndexStats]float64{slotUsage: dem}
			ix.Search(p, sigmaThin+deltaBulk*dem, &statW, math.Inf(1), true, best, eval)
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
			if c.MaxPorts > 0 && g.Degree(slotNode[bestSlot]) == c.MaxPorts {
				ix.Retire(int32(bestSlot), slotPt[bestSlot], usageOf)
			}
			u := usageToRoot[bestSlot] + deltaBulk*d
			slot := int32(len(slotNode))
			ix.Add(slot, p, &[geom.IndexStats]float64{slotUsage: u})
			slotNode = append(slotNode, id)
			slotPt = append(slotPt, p)
			usageToRoot = append(usageToRoot, u)
			if c.MaxPorts > 0 && g.Degree(id) >= c.MaxPorts {
				ix.Retire(slot, p, usageOf)
			}
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
