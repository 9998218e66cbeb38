package peering

import (
	"math"
	"sort"

	"repro/internal/errs"
	"repro/internal/graph"
)

// TransitLink is a customer-provider relationship between two ISPs: the
// customer buys global reachability from the provider, interconnecting
// at the named cities' POP routers.
type TransitLink struct {
	Customer, Provider int // ISP indices
	CustomerCity       int // city of the customer-side router
	ProviderCity       int // city of the provider-side router
	RouterCustomer     int // node id within the customer's graph
	RouterProvider     int // node id within the provider's graph
}

// TransitConfig parameterizes AssignTransit.
type TransitConfig struct {
	// ProvidersPerCustomer is how many upstreams each non-tier-1 ISP
	// buys (default 1; 2 models multihoming).
	ProvidersPerCustomer int
}

// TransitResult is the customer-provider structure layered onto an
// assembled Internet.
type TransitResult struct {
	Links []TransitLink
	// Tier[i] is 1 for tier-1 ISPs, 2 for their direct customers, etc.
	Tier []int
	// ASAll is the AS graph including both peering and transit edges;
	// transit edges carry Cable == 1, peering edges Cable == 0.
	ASAll *graph.Graph
}

// AssignTransit layers customer-provider (transit) relationships onto an
// assembled Internet, per the paper's §2.3 observation that inter-ISP
// structure reflects business relationships beyond settlement-free
// peering. Size is measured by POP footprint; every ISP outside the top
// tier buys transit from the nearest larger ISPs (shared cities
// preferred — that is where interconnection is cheap, §2.1).
//
// The returned AS graph contains one node per ISP and an edge per
// related pair. With skewed ISP sizes, its degree distribution becomes
// hub-dominated: the Faloutsos-style heavy tail emerges from economics
// rather than from preferential attachment.
func AssignTransit(inet *Internet, cfg TransitConfig) (*TransitResult, error) {
	n := len(inet.ISPs)
	if n == 0 {
		return nil, errs.BadParamf("peering: empty internet")
	}
	per := cfg.ProvidersPerCustomer
	if per <= 0 {
		per = 1
	}
	// A quarter of the ISPs, at least 2, form the provider-free top tier.
	tier1 := min(max(n/4, 2), n)

	// Rank ISPs by footprint size (POP count, then total city count as a
	// proxy for population served).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	size := func(i int) int { return len(inet.ISPs[i].Design.POPs) }
	sort.SliceStable(order, func(a, b int) bool { return size(order[a]) > size(order[b]) })
	rank := make([]int, n)
	for pos, i := range order {
		rank[i] = pos
	}

	res := &TransitResult{Tier: make([]int, n)}
	for _, i := range order[:tier1] {
		res.Tier[i] = 1
	}

	// Each non-tier-1 ISP selects providers among strictly higher-ranked
	// ISPs, preferring shared cities then geographic proximity of POPs.
	for _, i := range order[tier1:] {
		type cand struct {
			j      int
			shared bool
			dist   float64
			ci, cj int // interconnection cities
			ri, rj int // routers
		}
		var cands []cand
		for _, j := range order {
			if rank[j] >= rank[i] {
				break // order is sorted by rank; stop at own rank
			}
			best := cand{j: j, dist: math.Inf(1)}
			di := inet.ISPs[i].Design
			dj := inet.ISPs[j].Design
			for pi, ci := range di.POPCity {
				for pj, cj := range dj.POPCity {
					if ci == cj {
						best = cand{j: j, shared: true, dist: 0, ci: ci, cj: cj,
							ri: di.POPs[pi], rj: dj.POPs[pj]}
					} else if !best.shared {
						ni := di.Graph.Node(di.POPs[pi])
						nj := dj.Graph.Node(dj.POPs[pj])
						dx, dy := ni.X-nj.X, ni.Y-nj.Y
						if d := math.Hypot(dx, dy); d < best.dist {
							best = cand{j: j, dist: d, ci: ci, cj: cj,
								ri: di.POPs[pi], rj: dj.POPs[pj]}
						}
					}
					if best.shared {
						break
					}
				}
				if best.shared {
					break
				}
			}
			if !math.IsInf(best.dist, 1) {
				cands = append(cands, best)
			}
		}
		sort.SliceStable(cands, func(a, b int) bool {
			if cands[a].shared != cands[b].shared {
				return cands[a].shared
			}
			if cands[a].dist != cands[b].dist {
				return cands[a].dist < cands[b].dist
			}
			// Tie-break toward the larger provider.
			return rank[cands[a].j] < rank[cands[b].j]
		})
		tier := 0
		for k := 0; k < per && k < len(cands); k++ {
			c := cands[k]
			res.Links = append(res.Links, TransitLink{
				Customer: i, Provider: c.j,
				CustomerCity: c.ci, ProviderCity: c.cj,
				RouterCustomer: c.ri, RouterProvider: c.rj,
			})
			if t := res.Tier[c.j] + 1; tier == 0 || t < tier {
				tier = t
			}
		}
		if tier == 0 {
			tier = 1 // no larger ISP reachable: de facto top tier
		}
		res.Tier[i] = tier
	}

	// AS graph with both relationship kinds. Transit edges are added
	// first: when a pair both peers and has a transit contract, the
	// contract dominates (the customer gets full transit, not just
	// peer-cone routes).
	as := graph.New(n)
	for _, ispInst := range inet.ISPs {
		as.AddNode(graph.Node{Kind: graph.KindPeering, Label: ispInst.Name})
	}
	seen := map[[2]int]bool{}
	addEdge := func(a, b, kind int) {
		if a > b {
			a, b = b, a
		}
		if a == b || seen[[2]int{a, b}] {
			return
		}
		seen[[2]int{a, b}] = true
		as.AddEdge(graph.Edge{U: a, V: b, Weight: 1, Cable: kind})
	}
	for _, l := range res.Links {
		addEdge(l.Customer, l.Provider, 1)
	}
	// Tier-1 full mesh: the default-free zone is a settlement-free
	// clique by definition — providers without providers must peer with
	// each other or the internet partitions.
	for _, a := range order[:tier1] {
		for _, b := range order[:tier1] {
			if a < b {
				addEdge(a, b, 0)
			}
		}
	}
	for _, p := range inet.Peerings {
		addEdge(p.A, p.B, 0)
	}
	res.ASAll = as
	return res, nil
}
