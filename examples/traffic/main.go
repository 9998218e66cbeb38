// Traffic-model registry walkthrough: enumerate registered demand
// models, generate demand matrices over a national geography, provision
// an ISP backbone under different traffic assumptions, and run a
// traffic-driven scenario whose volume-aware max-min fair allocation is
// summarized by the CapTraffic registry metrics — the paper's §2.2
// "performance is throughput under the offered demand" as a
// five-minute program.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	hotgen "repro"
)

func main() {
	ctx := context.Background()

	// 1. Demand models are name-addressable, like generators, metrics
	// and attacks.
	fmt.Printf("registered demand models: %s\n\n", strings.Join(hotgen.DemandModels(), ", "))

	// A national geography: Zipf-skewed population centers.
	geo, err := hotgen.GenerateGeography(hotgen.GeographyConfig{
		NumCities: 20, Seed: 1, ZipfExponent: 1, MinSeparation: 0.03,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. The same geography under different traffic assumptions. The
	// zero TrafficSelection is gravity with its defaults — the paper's
	// canonical input.
	for _, sel := range []hotgen.TrafficSelection{
		{},
		{Name: "zipf-hotspot", Params: hotgen.TrafficParams{"exponent": 1.5}},
		{Name: "single-epicenter"},
	} {
		dm, err := hotgen.GenerateDemandMatrix(ctx, geo, sel, 1)
		if err != nil {
			log.Fatal(err)
		}
		name := sel.Name
		if name == "" {
			name = "gravity (default)"
		}
		fmt.Printf("%-22s total demand %.4f, top-pair share %.3f\n",
			name, dm.Total(), dm[0][1]/dm.Total())
	}

	// 3. Provision an ISP backbone against a chosen demand model: the
	// demand model is a first-class stage of the buildout, not a
	// hardcoded gravity call.
	des, err := hotgen.BuildISP(ctx, hotgen.ISPConfig{
		Geography: geo, NumPOPs: 6, Customers: 400, Seed: 1,
		PerfWeight: 50, MaxExtraBackboneLinks: 3, DemandMin: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := hotgen.ProvisionBackboneContext(ctx, des, geo, hotgen.DefaultCatalog(), 0,
		hotgen.TrafficSelection{Name: "zipf-hotspot"}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbackbone provisioned for zipf-hotspot demand: %d demands, cost %.2f, max utilization %.3f\n",
		rep.Demands, rep.ProvisionCost, rep.MaxUtilization)

	// 4. A traffic-driven scenario: generate a topology, lift its hubs
	// into traffic sites, allocate the model's demand max-min fairly
	// (volume-aware: a flow frozen at its offered volume frees its
	// unused share), and summarize with the CapTraffic metrics.
	res, err := hotgen.NewEngine(nil).Run(ctx, hotgen.Scenario{
		Name:     "hotspot-traffic",
		Generate: hotgen.GenerateSpec{Model: "ba", Params: hotgen.GenParams{"n": 400, "m": 2}},
		Traffic:  &hotgen.TrafficSpec{Model: "zipf-hotspot", Sites: 16},
		Seeds:    []int64{1, 2},
	}, hotgen.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(res.Format())
}
