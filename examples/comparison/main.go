// Comparison: the paper's §1 argument made concrete. Generate a HOT
// topology and a set of descriptive generators (BA, GLP, ER, Waxman,
// transit-stub) matched on size, then print the [30]-style metric suite
// side by side: generators that match the degree tail diverge on
// structure, and vice versa. Ends with the §3.1 robust-yet-fragile
// attack/failure comparison.
package main

import (
	"context"
	"fmt"
	"log"

	hotgen "repro"
)

func main() {
	const n = 1000
	hot, _, err := hotgen.GrowHOT(hotgen.HOTConfig{
		N:    n,
		Seed: 11,
		Terms: []hotgen.ObjectiveTerm{
			hotgen.DistanceTerm{Weight: 8},
			hotgen.CentralityTerm{Weight: 1},
		},
		LinksPerArrival: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	ba, err := hotgen.GenBarabasiAlbert(n, 2, 11)
	if err != nil {
		log.Fatal(err)
	}
	glp, err := hotgen.GenGLP(n, 2, 0.3, 0.6, 11)
	if err != nil {
		log.Fatal(err)
	}
	er, err := hotgen.GenErdosRenyiGNM(n, hot.NumEdges(), 11)
	if err != nil {
		log.Fatal(err)
	}
	wax, err := hotgen.GenWaxman(n, 0.04, 0.35, 11)
	if err != nil {
		log.Fatal(err)
	}
	cm, _, err := hotgen.GenConfigurationModel(hot.Degrees(), 11)
	if err != nil {
		log.Fatal(err)
	}
	ts, err := hotgen.GenTransitStub(hotgen.TransitStubConfig{
		TransitDomains:  4,
		TransitSize:     4,
		StubsPerTransit: 3,
		StubSize:        20,
		EdgeProb:        0.3,
		Seed:            11,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-14s %6s %7s %-13s %8s %8s %9s %9s\n",
		"generator", "edges", "maxDeg", "tail", "expand@3", "resil", "distort", "hierDep")
	for _, e := range []struct {
		name string
		g    *hotgen.Graph
	}{
		{"hot(fkp,m=2)", hot}, {"ba(m=2)", ba}, {"glp", glp},
		{"er(gnm)", er}, {"waxman", wax},
		{"config(hot)", cm}, {"transit-stub", ts},
	} {
		p := hotgen.ComputeProfile(e.g, 11)
		tail := hotgen.ClassifyTail(e.g.Degrees())
		fmt.Printf("%-14s %6d %7d %-13s %8.3f %8.3f %9.2f %9.2f\n",
			e.name, p.Edges, p.MaxDegree, tail.Kind,
			p.ExpansionAt3, p.Resilience, p.Distortion, p.HierarchyDepth)
	}

	// §3.1 robust yet fragile: failure vs attack on the HOT topology and
	// the density-matched random graph.
	ctx := context.Background()
	fracs := []float64{0.02, 0.05, 0.1}
	fmt.Printf("\n%-14s %12s %12s\n", "topology", "LCC@5%fail", "LCC@5%attack")
	for _, e := range []struct {
		name string
		g    *hotgen.Graph
	}{
		{"hot(fkp,m=2)", hot}, {"er(gnm)", er},
	} {
		fail, err := hotgen.RunRobustnessSweep(ctx, e.g, nil, hotgen.RobustnessSweepSpec{
			Attack: "random-failure", Fracs: fracs, Trials: 10,
		}, 11)
		if err != nil {
			log.Fatal(err)
		}
		atk, err := hotgen.RunRobustnessSweep(ctx, e.g, nil, hotgen.RobustnessSweepSpec{
			Attack: "degree", Fracs: fracs,
		}, 11)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %12.3f %12.3f\n", e.name, fail[0].Values[1], atk[0].Values[1])
	}
}
