package experiments

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/graph"
	"repro/internal/isp"
	"repro/internal/metricreg"
	"repro/internal/params"
	"repro/internal/traffic"
	"repro/internal/trafficreg"
)

func standardGeography(opts Options, cities int) (*traffic.Geography, error) {
	return traffic.GenerateGeography(traffic.GeographyConfig{
		NumCities:     cities,
		Seed:          opts.Seed,
		ZipfExponent:  1.0,
		MinSeparation: 0.03,
	})
}

// E4CostVsProfit regenerates the §2.2 dichotomy: "a cost-based
// formulation ... minimizes cost subject to satisfying traffic demand"
// versus "a profit-based formulation [that] seeks to build a network that
// satisfies demand only up to the point of profitability — where marginal
// revenue meets marginal cost".
func E4CostVsProfit(opts Options) (*Table, error) {
	geo, err := standardGeography(opts, 25)
	if err != nil {
		return nil, err
	}
	customers := opts.scale(2000)
	t := &Table{
		ID:    "E4",
		Title: fmt.Sprintf("Cost vs profit formulation, %d offered customers, price sweep", customers),
		Claim: "a profit-based ISP stops building where marginal revenue meets marginal cost, serving fewer customers at low prices (§2.2)",
		Header: []string{
			"formulation", "price", "served", "servedFrac", "demandFrac",
			"accessCost", "revenue", "profit",
		},
	}
	base := isp.Config{
		Geography:             geo,
		NumPOPs:               8,
		Customers:             customers,
		Seed:                  opts.Seed,
		PerfWeight:            50,
		MaxExtraBackboneLinks: 3,
		DemandMin:             1,
		DemandMax:             8,
	}
	// Unit 0 is the cost-based build; the rest sweep the profit price.
	// Each unit builds an independent ISP, so the whole sweep fans out.
	prices := []float64{0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 1.0}
	designs, err := mapUnits(opts, 1+len(prices), func(u int) (*isp.Design, error) {
		cfg := base
		if u > 0 {
			cfg.Formulation = isp.ProfitBased
			cfg.PricePerDemand = prices[u-1]
		}
		return isp.BuildContext(opts.ctx(), cfg)
	})
	if err != nil {
		return nil, err
	}
	cost := designs[0]
	t.AddRow("cost-based", "-", d(cost.CustomersServed),
		f3(float64(cost.CustomersServed)/float64(cost.CustomersOffered)),
		f3(cost.DemandServed/cost.DemandOffered),
		f2(cost.AccessCost), "-", "-")
	for pi, price := range prices {
		des := designs[1+pi]
		t.AddRow("profit-based", f4(price), d(des.CustomersServed),
			f3(float64(des.CustomersServed)/float64(des.CustomersOffered)),
			f3(des.DemandServed/des.DemandOffered),
			f2(des.AccessCost), f2(des.Revenue), f2(des.Profit))
	}
	t.Notes = append(t.Notes,
		"served customers increase monotonically with price; at high prices the profit ISP converges to the cost-based buildout")
	return t, nil
}

// E5NationalISP regenerates the §2.2 hierarchy claim: a national ISP
// decomposes into backbone (WAN), distribution (MAN), and customers
// (LAN), with size/connectivity tracking the number and location of
// customers, concentrated in big cities.
func E5NationalISP(opts Options) (*Table, error) {
	geo, err := standardGeography(opts, 30)
	if err != nil {
		return nil, err
	}
	customers := opts.scale(3000)
	t := &Table{
		ID:    "E5",
		Title: fmt.Sprintf("National ISP, 30 Zipf cities, %d customers", customers),
		Claim: "ISP topology decomposes into WAN/MAN/LAN hierarchy; \"the size, location and connectivity of the ISP will depend largely on the number and location of its customers\" (§2.2)",
		Header: []string{
			"placement", "POPs", "bbLinks", "nodes", "edges",
			"maxDeg", "hierDepth", "distortion", "popShare(top3)",
		},
	}
	for _, placement := range []isp.POPPlacement{isp.TopCities, isp.KMedian} {
		cfg := isp.Config{
			Geography:             geo,
			NumPOPs:               8,
			Customers:             customers,
			Seed:                  opts.Seed,
			Placement:             placement,
			BackboneCostPerLength: 4,
			PerfWeight:            400,
			MaxExtraBackboneLinks: 6,
			DemandMin:             1,
			DemandMax:             8,
			MaxPorts:              64,
		}
		des, err := isp.BuildContext(opts.ctx(), cfg)
		if err != nil {
			return nil, err
		}
		g := des.Graph
		vals, err := metricreg.Evaluate(opts.ctx(), metricreg.NewSource(g, nil), []metricreg.Selection{
			{Name: "hierarchy-depth", Params: params.Params{"root": float64(des.POPs[0])}},
			{Name: "distortion", Params: params.Params{"sample": 2000}},
		}, metricreg.Options{Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		hd, dist := vals["hierarchy-depth"].Scalar, vals["distortion"].Scalar
		// Fraction of customers attached (via access subtree) to the 3
		// biggest POP metros.
		share := topMetroShare(des, 3)
		name := "top-cities"
		if placement == isp.KMedian {
			name = "k-median"
		}
		t.AddRow(name, d(len(des.POPs)), d(len(des.BackboneEdges)),
			d(g.NumNodes()), d(g.NumEdges()), d(g.MaxDegree()),
			f3(hd), f3(dist), f3(share))

		// Provision the WAN for the routed inter-metro demand (footnote
		// 1: topology = connectivity + capacity).
		rep, err := isp.ProvisionBackboneContext(opts.ctx(), des, geo, access.DefaultCatalog(), 0, trafficreg.Selection{}, 0)
		if err != nil {
			return nil, err
		}
		thick := 0
		for _, k := range rep.CablePerEdge {
			if k == len(access.DefaultCatalog())-1 {
				thick++
			}
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s backbone provisioning: %d demands routed, %d/%d links on the thickest cable, max utilization %.2f, provision cost %.1f",
			name, rep.Demands, thick, len(des.BackboneEdges), rep.MaxUtilization, rep.ProvisionCost))
	}
	t.Notes = append(t.Notes,
		"popShare(top3): fraction of served customers homed to the 3 most populous POP metros — population concentration drives the topology",
		"distortion > 1 reflects the redundant backbone links on top of the access trees")
	return t, nil
}

// topMetroShare returns the fraction of customers reachable from the
// top-k POPs without traversing backbone edges.
func topMetroShare(des *isp.Design, k int) float64 {
	g := des.Graph
	backbone := map[int]bool{}
	for _, e := range des.BackboneEdges {
		backbone[e] = true
	}
	acc := graph.New(g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		acc.AddNode(*g.Node(i))
	}
	for i, e := range g.Edges() {
		if !backbone[i] {
			acc.AddEdge(e)
		}
	}
	c := acc.Freeze()
	ws := graph.GetWorkspace(c.NumNodes())
	defer ws.Release()
	total, top := 0, 0
	for pi, pop := range des.POPs {
		c.BFS(ws, pop)
		for v, dd := range ws.Hop[:c.NumNodes()] {
			if dd > 0 && acc.Node(v).Kind == graph.KindCustomer {
				total++
				if pi < k {
					top++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}
