// Attack registry walkthrough: enumerate registered attacks, trace
// robustness curves with the sweep engine's reverse union-find replay,
// compare an edge-targeted attack, and summarize robust-yet-fragile
// with the attack gap — the paper's §3.1 claim as a five-minute
// program.
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

	// 1. Attacks are name-addressable, like generators and metrics.
	fmt.Printf("registered attacks: %s\n\n", strings.Join(hotgen.AttackNames(), ", "))

	// One optimization-designed topology (FKP tree: geography + hubs).
	g, err := hotgen.FKP(hotgen.FKPConfig{N: 1500, Alpha: 8, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	c := g.Freeze() // one snapshot shared by every sweep below

	// 2. Trace LCC curves for several named attacks. A plain LCC sweep
	// replays each schedule backwards through union-find: the whole
	// trajectory costs one near-linear pass per schedule, so a dense
	// fraction grid is effectively free.
	fracs := []float64{0.01, 0.05, 0.1, 0.2, 0.5, 1}
	attacks := []struct {
		name   string
		params hotgen.AttackParams
	}{
		{"random-failure", nil},
		{"degree", nil},
		{"adaptive-degree", nil},
		{"geographic", hotgen.AttackParams{"x": 0.5, "y": 0.5}},
		{"preferential", hotgen.AttackParams{"alpha": 2}},
		{"random-edge", nil},
	}
	fmt.Printf("%-16s", "attack")
	for _, f := range fracs {
		fmt.Printf("  lcc@%-5g", f)
	}
	fmt.Println()
	for _, a := range attacks {
		curves, err := hotgen.RunRobustnessSweep(ctx, g, c, hotgen.RobustnessSweepSpec{
			Attack: a.name,
			Params: a.params,
			Fracs:  fracs,
			Trials: 5,
		}, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s", a.name)
		for _, v := range curves[0].Values {
			fmt.Printf("  %-9.4f", v)
		}
		fmt.Println()
	}

	// 3. The attack gap condenses robust-yet-fragile into one number:
	// how much more a targeted attack hurts than uniform random removal
	// of the same target (nodes or edges). random-edge IS its own
	// baseline, so its gap is exactly zero.
	fmt.Println()
	for _, name := range []string{"degree", "geographic", "random-edge"} {
		gap, err := hotgen.RobustnessAttackGap(ctx, g, c, name, nil,
			[]float64{0.01, 0.05, 0.1, 0.2}, 10, 1, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("attack gap vs uniform removal, %-12s %+.4f\n", name+":", gap)
	}

	// 4. Sweeps generalize beyond LCC: any masked-capable metric set is
	// re-evaluated along the same schedule.
	curves, err := hotgen.RunRobustnessSweep(ctx, g, c, hotgen.RobustnessSweepSpec{
		Attack:  "degree",
		Fracs:   []float64{0.05, 0.2},
		Metrics: []string{"lcc", "mean-degree"},
	}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	for _, curve := range curves {
		fmt.Printf("degree attack, %-12s %v\n", curve.Name+":", curve.Values)
	}
}
