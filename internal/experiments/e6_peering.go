package experiments

import (
	"fmt"
	"sort"

	"repro/internal/peering"
	"repro/internal/stats"
)

// E6Peering regenerates the §2.3 programme: model the Internet as
// interconnected ISPs, with peering decided by an optimization over
// shared presence and traffic-exchange gain, and extract the AS graph.
func E6Peering(opts Options) (*Table, error) {
	geo, err := standardGeography(opts, 20)
	if err != nil {
		return nil, err
	}
	nISPs := 10
	custPerISP := opts.scale(300)
	inet, err := peering.AssembleContext(opts.ctx(), peering.Config{
		Geography:          geo,
		NumISPs:            nISPs,
		Seed:               opts.Seed,
		POPsPerISP:         6,
		CustomersPerISP:    custPerISP,
		PeeringSetupCost:   1e-7,
		MaxPeeringsPerPair: 2,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "E6",
		Title: fmt.Sprintf("Internet assembly: %d ISPs, %d customers each", nISPs, custPerISP),
		Claim: "\"the Internet as a whole is simply a conglomeration of interconnected ISPs\"; peering happens disproportionately in big cities; AS-level connectivity has no per-node technology cap while router links do (§2.1, §2.3)",
		Header: []string{
			"metric", "value",
		},
	}
	t.AddRow("router-level nodes", d(inet.Router.NumNodes()))
	t.AddRow("router-level edges", d(inet.Router.NumEdges()))
	t.AddRow("peering interconnects", d(len(inet.Peerings)))
	t.AddRow("AS nodes", d(inet.AS.NumNodes()))
	t.AddRow("AS edges", d(inet.AS.NumEdges()))
	asDeg := stats.AnalyzeDegrees(inet.AS)
	rtDeg := stats.AnalyzeDegrees(inet.Router)
	t.AddRow("AS max degree / (n-1)", f3(asDeg.TopDegreeFrac))
	t.AddRow("router max degree / (n-1)", f4(rtDeg.TopDegreeFrac))
	t.AddRow("AS mean degree", f2(asDeg.MeanDegree))
	t.AddRow("router mean degree", f2(rtDeg.MeanDegree))

	// Peerings by city population rank.
	counts := map[int]int{}
	for _, p := range inet.Peerings {
		counts[p.CityA]++
	}
	type cityCount struct {
		city, n int
	}
	var cc []cityCount
	for c, n := range counts {
		cc = append(cc, cityCount{c, n})
	}
	sort.Slice(cc, func(a, b int) bool {
		if cc[a].n != cc[b].n {
			return cc[a].n > cc[b].n
		}
		return cc[a].city < cc[b].city
	})
	topShare := 0
	for _, x := range cc {
		if x.city < 5 { // 5 most populous cities
			topShare += x.n
		}
	}
	if len(inet.Peerings) > 0 {
		t.AddRow("peerings in top-5 cities", fmt.Sprintf("%d/%d", topShare, len(inet.Peerings)))
	}
	// Second part: a larger, backbone-only internet with Zipf-skewed ISP
	// sizes plus transit relationships — the §2.3 business structure that
	// makes the AS graph hub-dominated (the Faloutsos-style observation
	// of §3.2 emerging from economics).
	big, err := peering.AssembleContext(opts.ctx(), peering.Config{
		Geography:        geo,
		NumISPs:          24,
		Seed:             opts.Seed,
		POPsPerISP:       12,
		CustomersPerISP:  0,
		PeeringSetupCost: 1e-6,
		SizeSkew:         1.0,
	})
	if err != nil {
		return nil, err
	}
	tr, err := peering.AssignTransit(big, peering.TransitConfig{ProvidersPerCustomer: 2})
	if err != nil {
		return nil, err
	}
	tierCount := map[int]int{}
	for _, tier := range tr.Tier {
		tierCount[tier]++
	}
	t.AddRow("-- with transit (24 skewed ISPs) --", "")
	t.AddRow("transit links", d(len(tr.Links)))
	t.AddRow("tier-1 / tier-2 / deeper", fmt.Sprintf("%d / %d / %d",
		tierCount[1], tierCount[2], len(tr.Tier)-tierCount[1]-tierCount[2]))
	asDeg2 := stats.AnalyzeDegrees(tr.ASAll)
	t.AddRow("AS max degree / (n-1)", f3(asDeg2.TopDegreeFrac))
	t.AddRow("AS mean degree", f2(asDeg2.MeanDegree))
	t.AddRow("AS max/mean degree ratio", f2(float64(asDeg2.MaxDegree)/asDeg2.MeanDegree))
	vf, err := peering.ValleyFree(tr)
	if err != nil {
		return nil, err
	}
	t.AddRow("valley-free reachability", f3(vf.ReachableFrac))
	t.AddRow("avg valley-free AS path", f2(vf.AvgHops))

	t.Notes = append(t.Notes,
		"AS degrees are a business-relationship count (unbounded per node); router degrees remain small — the paper's §2.1 asymmetry",
		"peering concentrates in populous cities because that is where footprints overlap and traffic gain beats setup cost",
		"with size-skewed ISPs and transit economics the AS graph becomes hub-dominated without any preferential attachment")
	return t, nil
}
