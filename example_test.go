package hotgen_test

import (
	"context"
	"fmt"
	"log"

	hotgen "repro"
)

// The FKP model in its three alpha regimes — the §3.1 spectrum.
func Example_fkpRegimes() {
	for _, alpha := range []float64{0.3, 8, 8000} {
		g, err := hotgen.FKPContext(context.Background(), hotgen.FKPConfig{N: 2000, Alpha: alpha, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("alpha=%-6g %s\n", alpha, hotgen.Classify(g))
	}
	// Output:
	// alpha=0.3    star
	// alpha=8      power-law tree
	// alpha=8000   exponential tree
}

// Buy-at-bulk access design beats both naive extremes (§4.1).
func Example_buyAtBulk() {
	in, err := hotgen.RandomAccessInstance(hotgen.AccessInstanceConfig{
		N: 500, Seed: 7, DemandMin: 1, DemandMax: 16, RootAtCenter: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	mmp, err := hotgen.MMPIncremental(in, 1)
	if err != nil {
		log.Fatal(err)
	}
	star, err := hotgen.DirectStar(in)
	if err != nil {
		log.Fatal(err)
	}
	mst, err := hotgen.SingleCableMST(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tree:", mmp.Graph.IsTree())
	fmt.Println("beats star:", mmp.TotalCost() < star.TotalCost())
	fmt.Println("beats thin-MST:", mmp.TotalCost() < mst.TotalCost())
	// Output:
	// tree: true
	// beats star: true
	// beats thin-MST: true
}

// The generalized HOT framework: objectives + constraints ⇒ topology.
func Example_hotFramework() {
	g, _, err := hotgen.GrowHOTContext(context.Background(), hotgen.HOTConfig{
		N:    1000,
		Seed: 3,
		Terms: []hotgen.ObjectiveTerm{
			hotgen.DistanceTerm{Weight: 0.3}, // star-inducing tradeoff...
			hotgen.CentralityTerm{Weight: 1},
		},
		Constraints: []hotgen.Constraint{
			hotgen.MaxDegreeConstraint{Max: 16}, // ...vetoed by router ports
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("max degree:", g.MaxDegree())
	fmt.Println("still a tree:", g.IsTree())
	// Output:
	// max degree: 16
	// still a tree: true
}
