package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/access"
	"repro/internal/isp"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/trafficreg"
)

// E11Performance regenerates the §3.1 characterization "the
// characteristics of HOT systems are high performance": on one fixed
// geography and demand, an ISP designed by the optimization framework
// (population-driven POP placement, cost/performance backbone) captures
// more of the national traffic demand and delivers it at shorter routed
// paths than the same resources deployed blindly.
func E11Performance(opts Options) (*Table, error) {
	geo, err := standardGeography(opts, 25)
	if err != nil {
		return nil, err
	}
	customers := opts.scale(1500)
	t := &Table{
		ID:    "E11",
		Title: fmt.Sprintf("Placement/backbone policy sweep on one geography, %d customers", customers),
		Claim: "\"the characteristics of HOT systems are high performance, highly structured internal complexity, apparently simple and robust external behavior\" (§3.1)",
		Header: []string{
			"placement", "backbone", "bbLinks", "demandCaptured",
			"throughput", "delivFrac", "avgPath", "jain",
		},
	}
	// The national demand matrix comes from the traffic registry's
	// canonical gravity model (numerically identical to the former
	// hardcoded GravityConfig{Scale: 1, Exponent: 1}).
	dm, err := trafficreg.GenerateDemand(opts.ctx(), geo, trafficreg.Selection{}, opts.Seed)
	if err != nil {
		return nil, err
	}
	totalDemand := dm.Total()

	type policy struct {
		placeName string
		random    bool
		bbName    string
		perf      bool
	}
	policies := []policy{
		{"top-cities", false, "perf-mesh", true},
		{"top-cities", false, "cost-tree", false},
		{"random", true, "perf-mesh", true},
		{"random", true, "cost-tree", false},
	}
	// Each policy designs, provisions, and routes an independent ISP, so
	// the whole sweep fans out across the worker pool; rows are emitted
	// in policy order.
	rows, err := mapUnits(opts, len(policies), func(pi int) ([]string, error) {
		p := policies[pi]
		subGeo, cityOf := placementGeography(geo, 8, p.random, opts.Seed)
		cfg := isp.Config{
			Geography:             subGeo,
			NumPOPs:               8,
			Customers:             customers,
			Seed:                  opts.Seed,
			BackboneCostPerLength: 4,
			DemandMin:             1,
			DemandMax:             8,
		}
		if p.perf {
			cfg.PerfWeight = 400
			cfg.MaxExtraBackboneLinks = 6
		}
		des, err := isp.BuildContext(opts.ctx(), cfg)
		if err != nil {
			return nil, err
		}
		// Remap POP cities to the full geography so all policies are
		// scored against the same national demand matrix.
		remapPOPCities(des, subGeo, cityOf)

		captured := 0.0
		var demands []routing.Demand
		for i := 0; i < len(des.POPs); i++ {
			for j := i + 1; j < len(des.POPs); j++ {
				v := dm[des.POPCity[i]][des.POPCity[j]]
				if v > 0 {
					captured += v
					demands = append(demands, routing.Demand{
						Src: des.POPs[i], Dst: des.POPs[j], Volume: v,
					})
				}
			}
		}
		if _, err := isp.ProvisionBackboneContext(opts.ctx(), des, geo, access.DefaultCatalog(), 0, trafficreg.Selection{}, 0); err != nil {
			return nil, err
		}
		sp, mm, err := routing.RouteAndAllocateContext(opts.ctx(), des.Graph, nil, demands)
		if err != nil {
			return nil, err
		}
		delivFrac := 0.0
		if captured > 0 {
			delivFrac = mm.Throughput / captured
		}
		return []string{p.placeName, p.bbName, d(len(des.BackboneEdges)),
			f3(captured / totalDemand), f3(mm.Throughput), f3(delivFrac),
			f3(sp.AvgPathWeight), f3(mm.JainIndex)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"demandCaptured: fraction of the national gravity demand whose endpoints both have a POP — population-driven placement captures the big-city traffic",
		"delivFrac: max-min fair throughput over captured demand after backbone provisioning; avgPath: demand-weighted routed path length",
		"performance is the by-product of optimizing placement and backbone against the true demand — the paper's central thesis")
	return t, nil
}

// placementGeography returns a sub-geography of k cities (top-k by
// population, or k uniform-random cities) plus the mapping from
// sub-geography city index to original city index.
func placementGeography(geo *traffic.Geography, k int, random bool, seed int64) (*traffic.Geography, []int) {
	n := len(geo.Cities)
	if k > n {
		k = n
	}
	idx := make([]int, 0, k)
	if random {
		perm := rng.Shuffle(rng.New(rng.Derive(seed, 555)), n)
		idx = append(idx, perm[:k]...)
		sort.Ints(idx)
	} else {
		for i := 0; i < k; i++ {
			idx = append(idx, i) // cities are sorted by population
		}
	}
	sub := &traffic.Geography{Region: geo.Region}
	for _, ci := range idx {
		sub.Cities = append(sub.Cities, geo.Cities[ci])
	}
	// isp.Build expects population-sorted cities; the sub-geography
	// preserves sortedness because idx is ascending and geo is sorted.
	cityOf := make([]int, len(sub.Cities))
	// After sub construction cities keep geo's order, so position p in
	// sub corresponds to idx[p].
	copy(cityOf, idx)
	return sub, cityOf
}

// remapPOPCities rewrites des.POPCity from sub-geography indices to the
// original geography's indices, matching POPs by location.
func remapPOPCities(des *isp.Design, sub *traffic.Geography, cityOf []int) {
	for i, pid := range des.POPs {
		nd := des.Graph.Node(pid)
		best, bestD := 0, math.Inf(1)
		for si, c := range sub.Cities {
			dx, dy := c.Loc.X-nd.X, c.Loc.Y-nd.Y
			if d := dx*dx + dy*dy; d < bestD {
				best, bestD = si, d
			}
		}
		des.POPCity[i] = cityOf[best]
	}
}
