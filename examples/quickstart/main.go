// Quickstart: generate an FKP topology in each alpha regime, classify
// the result, and print its degree-tail diagnosis — the paper's §3.1
// star → power-law → exponential spectrum in ~40 lines.
package main

import (
	"context"
	"fmt"
	"log"

	hotgen "repro"
)

func main() {
	const n = 2000
	ctx := context.Background()
	cases := []struct {
		label string
		alpha float64
	}{
		{"tiny alpha (centrality dominates)", 0.3},
		{"intermediate alpha (tradeoff)", 8},
		{"huge alpha (distance dominates)", 4 * n},
	}
	for _, c := range cases {
		g, err := hotgen.FKPContext(ctx, hotgen.FKPConfig{N: n, Alpha: c.alpha, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		class, tail := hotgen.Classify(g)
		fmt.Printf("%-36s alpha=%-8.1f class=%-16s maxDeg=%-4d tail=%s\n",
			c.label, c.alpha, class, g.MaxDegree(), tail.Kind)
	}

	// The same model through the generalized HOT framework, with a router
	// port constraint (§2.1 technology limit): the star regime is now
	// impossible and the optimizer spreads the hub.
	g, stats, err := hotgen.GrowHOTContext(ctx, hotgen.HOTConfig{
		N:          n,
		Seed:       1,
		Distance:   0.3,
		Centrality: 1,
		MaxDegree:  32,
	})
	if err != nil {
		log.Fatal(err)
	}
	class, _ := hotgen.Classify(g)
	fmt.Printf("\nport-capped would-be star:           class=%-16s maxDeg=%-4d totalCable=%.1f\n",
		class, g.MaxDegree(), stats.TotalLinkLength)
}
