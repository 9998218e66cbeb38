// Package peering assembles an Internet from individual ISPs, per the
// paper's §2.3: "the Internet as a whole is simply a conglomeration of
// interconnected ISPs". It decides where competing ISPs peer (an
// optimization over shared presence and traffic-exchange gain), wires the
// router-level interconnections, and extracts the AS-level graph.
package peering

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/isp"
	"repro/internal/rng"
	"repro/internal/traffic"
	"repro/internal/trafficreg"
)

// ISPInstance is one provider in the internet model.
type ISPInstance struct {
	Name   string
	Design *isp.Design
}

// PeeringLink is one inter-ISP connection at a shared city.
type PeeringLink struct {
	A, B      int // ISP indices
	CityA     int // POP city index within A's geography (shared geography)
	RouterA   int // node id in A's graph
	RouterB   int // node id in B's graph
	Gain      float64
	SetupCost float64
}

// Config parameterizes internet assembly.
type Config struct {
	Geography *traffic.Geography
	NumISPs   int
	Seed      int64
	// POPsPerISP and CustomersPerISP size each provider; customers can be
	// zero for backbone-only studies.
	POPsPerISP      int
	CustomersPerISP int
	// PeeringSetupCost is the fixed cost of establishing one peering
	// interconnect; a pair of ISPs peers at a city only when the
	// estimated traffic-exchange gain exceeds it.
	PeeringSetupCost float64
	// MaxPeeringsPerPair caps interconnects between one pair of ISPs.
	MaxPeeringsPerPair int
	// SizeSkew > 0 makes provider footprints heterogeneous: ISP i gets
	// max(2, round(POPsPerISP * (i+1)^-SizeSkew)) POPs, a Zipf-like size
	// distribution across providers. 0 keeps all ISPs the same size.
	SizeSkew float64
	// Demand names the registered traffic model (internal/trafficreg)
	// whose city-to-city demand scores peering candidates and drives
	// each member ISP's backbone augmentation. The zero Selection is
	// gravity with its defaults — the paper's §2.2 canonical input.
	Demand trafficreg.Selection
}

// Internet is the assembled multi-ISP topology.
type Internet struct {
	ISPs     []ISPInstance
	Peerings []PeeringLink
	// Router is the merged router-level graph; RouterOffset[i] is where
	// ISP i's nodes start within it.
	Router       *graph.Graph
	RouterOffset []int
	// AS is the AS-level graph: one node per ISP, an edge per peered
	// pair (§1: a link between two ASs indicates at least one
	// router-level connection).
	AS *graph.Graph
}

// AssembleContext builds the internet model. The context is checked
// before each member ISP buildout (the dominant cost) and threaded into
// the single-ISP designer, returning an errs.ErrCanceled-wrapping error
// when it is done.
func AssembleContext(ctx context.Context, cfg Config) (*Internet, error) {
	if cfg.Geography == nil || len(cfg.Geography.Cities) == 0 {
		return nil, errs.BadParamf("peering: missing geography")
	}
	if cfg.NumISPs < 1 {
		return nil, errs.BadParamf("peering: need at least one ISP")
	}
	if cfg.POPsPerISP < 1 {
		return nil, errs.BadParamf("peering: need at least one POP per ISP")
	}
	setup := cfg.PeeringSetupCost
	if setup <= 0 {
		setup = 1e-6
	}
	maxPer := cfg.MaxPeeringsPerPair
	if maxPer <= 0 {
		maxPer = 2
	}

	inet := &Internet{}
	// --- Build each ISP with its own footprint ----------------------------
	for i := 0; i < cfg.NumISPs; i++ {
		if err := errs.Ctx(ctx); err != nil {
			return nil, fmt.Errorf("peering: ISP %d: %w", i, err)
		}
		seed := rng.Derive(cfg.Seed, i)
		pops := cfg.POPsPerISP
		if cfg.SizeSkew > 0 {
			pops = int(math.Round(float64(cfg.POPsPerISP) * math.Pow(float64(i+1), -cfg.SizeSkew)))
			if pops < 2 {
				pops = 2
			}
		}
		// Each ISP picks POP cities with a bias toward big cities but
		// with provider-specific randomness: weighted sampling without
		// replacement by population.
		des, err := buildMemberISP(ctx, cfg, pops, seed)
		if err != nil {
			return nil, fmt.Errorf("peering: ISP %d: %w", i, err)
		}
		inet.ISPs = append(inet.ISPs, ISPInstance{
			Name:   fmt.Sprintf("isp-%02d", i),
			Design: des,
		})
	}

	// --- Decide peerings ---------------------------------------------------
	// Two ISPs peer at a shared POP city when the configured demand
	// model's traffic between their footprints routed through that city
	// justifies the setup cost.
	dm, err := trafficreg.GenerateDemand(ctx, cfg.Geography, cfg.Demand, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("peering: demand: %w", err)
	}
	for a := 0; a < cfg.NumISPs; a++ {
		for b := a + 1; b < cfg.NumISPs; b++ {
			shared := sharedCities(inet.ISPs[a].Design, inet.ISPs[b].Design)
			if len(shared) == 0 {
				continue
			}
			type scored struct {
				city int
				gain float64
			}
			var cands []scored
			for _, city := range shared {
				// Traffic exchange gain proxy: demand between this city
				// and every city in the other ISP's footprint.
				gain := 0.0
				for _, cb := range inet.ISPs[b].Design.POPCity {
					if cb != city {
						gain += dm[city][cb]
					}
				}
				for _, ca := range inet.ISPs[a].Design.POPCity {
					if ca != city {
						gain += dm[city][ca]
					}
				}
				cands = append(cands, scored{city, gain})
			}
			sort.Slice(cands, func(x, y int) bool {
				if cands[x].gain != cands[y].gain {
					return cands[x].gain > cands[y].gain
				}
				return cands[x].city < cands[y].city
			})
			for k, cand := range cands {
				if k >= maxPer || cand.gain < setup {
					break
				}
				ra := popRouterAtCity(inet.ISPs[a].Design, cand.city)
				rb := popRouterAtCity(inet.ISPs[b].Design, cand.city)
				inet.Peerings = append(inet.Peerings, PeeringLink{
					A: a, B: b, CityA: cand.city,
					RouterA: ra, RouterB: rb,
					Gain: cand.gain, SetupCost: setup,
				})
			}
		}
	}

	inet.buildMergedGraphs(cfg)
	return inet, nil
}

// buildMemberISP constructs one provider: POPs sampled by population
// weight (the big cities attract every provider — §2.1), metro access as
// in the single-ISP designer.
func buildMemberISP(ctx context.Context, cfg Config, k int, seed int64) (*isp.Design, error) {
	geo := cfg.Geography
	r := rng.New(seed)
	if k > len(geo.Cities) {
		k = len(geo.Cities)
	}
	// Weighted sampling of POP cities without replacement.
	weights := make([]float64, len(geo.Cities))
	for i, c := range geo.Cities {
		weights[i] = c.Population
	}
	chosen := map[int]bool{}
	for len(chosen) < k {
		idx := rng.WeightedChoice(r, weights)
		if !chosen[idx] {
			chosen[idx] = true
			weights[idx] = 0
		}
	}
	// The isp designer picks top cities; emulate arbitrary footprints by
	// building a sub-geography of only the chosen cities, remembering the
	// original indices in order.
	cities := make([]int, 0, k)
	for idx := range chosen {
		cities = append(cities, idx)
	}
	sort.Ints(cities)
	sub := &traffic.Geography{Region: geo.Region}
	for _, ci := range cities {
		sub.Cities = append(sub.Cities, geo.Cities[ci])
	}
	des, err := isp.BuildContext(ctx, isp.Config{
		Geography:             sub,
		NumPOPs:               k,
		Customers:             cfg.CustomersPerISP,
		Seed:                  seed,
		PerfWeight:            30,
		MaxExtraBackboneLinks: 2,
		DemandMin:             1,
		Demand:                cfg.Demand,
	})
	if err != nil {
		return nil, err
	}
	// Remap POPCity back to the full geography's city indices. The
	// sub-geography re-sorts by population; match POPs to original
	// indices by location.
	for i, pid := range des.POPs {
		n := des.Graph.Node(pid)
		best, bestD := -1, math.Inf(1)
		for _, ci := range cities {
			c := geo.Cities[ci]
			dx, dy := c.Loc.X-n.X, c.Loc.Y-n.Y
			if d := dx*dx + dy*dy; d < bestD {
				best, bestD = ci, d
			}
		}
		des.POPCity[i] = best
	}
	return des, nil
}

func sharedCities(a, b *isp.Design) []int {
	inA := map[int]bool{}
	for _, c := range a.POPCity {
		inA[c] = true
	}
	var out []int
	for _, c := range b.POPCity {
		if inA[c] {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

func popRouterAtCity(d *isp.Design, city int) int {
	for i, c := range d.POPCity {
		if c == city {
			return d.POPs[i]
		}
	}
	return -1
}

// buildMergedGraphs constructs the router-level union graph and the AS
// graph.
func (inet *Internet) buildMergedGraphs(cfg Config) {
	router := graph.New(0)
	offsets := make([]int, len(inet.ISPs))
	for i, ispInst := range inet.ISPs {
		offsets[i] = router.NumNodes()
		g := ispInst.Design.Graph
		for v := 0; v < g.NumNodes(); v++ {
			n := *g.Node(v)
			n.Label = fmt.Sprintf("%s/%s", ispInst.Name, n.Label)
			router.AddNode(n)
		}
		for _, e := range g.Edges() {
			ne := e
			ne.U += offsets[i]
			ne.V += offsets[i]
			router.AddEdge(ne)
		}
	}
	asGraph := graph.New(len(inet.ISPs))
	for _, ispInst := range inet.ISPs {
		asGraph.AddNode(graph.Node{Kind: graph.KindPeering, Label: ispInst.Name})
	}
	asSeen := map[[2]int]bool{}
	for _, p := range inet.Peerings {
		if p.RouterA < 0 || p.RouterB < 0 {
			continue
		}
		u := p.RouterA + offsets[p.A]
		v := p.RouterB + offsets[p.B]
		nu, nv := router.Node(u), router.Node(v)
		dx, dy := nu.X-nv.X, nu.Y-nv.Y
		router.AddEdge(graph.Edge{U: u, V: v, Weight: math.Hypot(dx, dy) + 1e-9, Cable: -1})
		key := [2]int{p.A, p.B}
		if !asSeen[key] {
			asSeen[key] = true
			asGraph.AddEdge(graph.Edge{U: p.A, V: p.B, Weight: 1})
		}
	}
	inet.Router = router
	inet.RouterOffset = offsets
	inet.AS = asGraph
}
