// National ISP: the paper's §2.2 programme. Generate a Zipf national
// geography, design an ISP under the cost-based formulation, then redo it
// profit-based across a price sweep and watch buildout stop where
// marginal revenue meets marginal cost. Finally assemble several
// competing ISPs into an internet (§2.3) and print the AS graph.
package main

import (
	"context"
	"fmt"
	"log"

	hotgen "repro"
)

func main() {
	ctx := context.Background()
	geo, err := hotgen.GenerateGeography(hotgen.GeographyConfig{
		NumCities:     25,
		Seed:          3,
		ZipfExponent:  1.0,
		MinSeparation: 0.03,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("geography: %d cities, biggest %.0f households, smallest %.0f\n\n",
		len(geo.Cities), geo.Cities[0].Population, geo.Cities[len(geo.Cities)-1].Population)

	base := hotgen.ISPConfig{
		Geography:             geo,
		NumPOPs:               8,
		Customers:             2500,
		Seed:                  3,
		PerfWeight:            50,
		MaxExtraBackboneLinks: 4,
		MaxPorts:              64,
		DemandMin:             1,
		DemandMax:             8,
	}
	cost, err := hotgen.BuildISP(ctx, base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost-based ISP: %d nodes, %d edges, %d backbone links, cost %.1f, serves %d/%d customers\n\n",
		cost.Graph.NumNodes(), cost.Graph.NumEdges(), len(cost.BackboneEdges),
		cost.TotalCost(), cost.CustomersServed, cost.CustomersOffered)

	fmt.Println("profit-based buildout vs price (marginal revenue vs marginal cost, §2.2):")
	for _, price := range []float64{0.02, 0.05, 0.1, 0.5, 2.0} {
		cfg := base
		cfg.Formulation = hotgen.ProfitBased
		cfg.PricePerDemand = price
		des, err := hotgen.BuildISP(ctx, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  price=%-5.2f served %4d/%d customers, revenue %8.1f, profit %8.1f\n",
			price, des.CustomersServed, des.CustomersOffered, des.Revenue, des.Profit)
	}

	inet, err := hotgen.AssembleInternet(ctx, hotgen.InternetConfig{
		Geography:        geo,
		NumISPs:          8,
		Seed:             3,
		POPsPerISP:       6,
		CustomersPerISP:  250,
		PeeringSetupCost: 1e-7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninternet: %d ISPs, %d router nodes, %d peering interconnects\n",
		len(inet.ISPs), inet.Router.NumNodes(), len(inet.Peerings))
	fmt.Printf("AS graph: %d nodes, %d edges (business relationships, §1)\n",
		inet.AS.NumNodes(), inet.AS.NumEdges())
	counts := map[int]int{}
	for _, p := range inet.Peerings {
		counts[p.CityA]++
	}
	top := 0
	for city, n := range counts {
		if city < 5 {
			top += n
		}
	}
	if len(inet.Peerings) > 0 {
		fmt.Printf("peerings in the 5 biggest cities: %d/%d (§2.1: ISPs peer in the big cities)\n",
			top, len(inet.Peerings))
	}
}
