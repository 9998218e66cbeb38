package experiments

import (
	"context"
	"fmt"

	"repro/internal/access"
	"repro/internal/attackreg"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/robust"
)

// E8Robustness regenerates the HOT "robust yet fragile" signature (§3.1):
// optimization-designed topologies tolerate random failures like (or
// better than) comparably dense random graphs, but targeted attacks on
// their rare, high-degree hubs cause disproportionate damage.
func E8Robustness(opts Options) (*Table, error) {
	n := opts.scale(800)
	trials := opts.reps(10)
	fracs := []float64{0.01, 0.05, 0.1, 0.2}
	t := &Table{
		ID:    "E8",
		Title: fmt.Sprintf("Failure vs attack sweeps (attack registry: %v), n=%d, removal fractions %v", attackreg.Names(), n, fracs),
		Claim: "HOT systems show \"apparently simple and robust external behavior, with the risk of ... potentially catastrophic cascading failures initiated by possibly quite small perturbations\" (§3.1)",
		Header: []string{
			"topology", "LCC@5%fail", "LCC@5%attack", "LCC@5%geo", "attackGap", "criticalFrac(attack)",
		},
	}
	type entry struct {
		name string
		g    *graph.Graph
	}
	var entries []entry
	fkp, err := core.FKPContext(opts.ctx(), core.FKPConfig{N: n, Alpha: 8, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	entries = append(entries, entry{"hot-fkp(alpha=8)", fkp})
	in, err := access.RandomInstance(access.InstanceConfig{
		N: n - 1, Seed: opts.Seed, DemandMin: 1, DemandMax: 8, RootAtCenter: true,
	})
	if err != nil {
		return nil, err
	}
	bab, err := access.MMPIncremental(in, opts.Seed)
	if err != nil {
		return nil, err
	}
	entries = append(entries, entry{"buy-at-bulk(mmp)", bab.Graph})
	ba, err := gen.BarabasiAlbertContext(opts.ctx(), n, 1, opts.Seed) // tree like the HOT outputs
	if err != nil {
		return nil, err
	}
	entries = append(entries, entry{"ba(m=1,tree)", ba})
	er, err := gen.ErdosRenyiGNMContext(opts.ctx(), n, fkp.NumEdges(), opts.Seed)
	if err != nil {
		return nil, err
	}
	entries = append(entries, entry{"er(same density)", er})

	// Sweep the four topologies concurrently through the attack
	// registry, one frozen snapshot per topology shared by every named
	// attack; each sweep additionally parallelizes its randomized trials
	// internally (and the LCC curves ride the union-find replay).
	ctx := opts.ctx()
	type sweeps struct {
		fail, atk, geo, gap, crit float64
	}
	rows, err := mapUnits(opts, len(entries), func(i int) (sweeps, error) {
		g := entries[i].g
		c := g.Freeze()
		at5 := func(attack string, p attackreg.Params, tr int) (float64, error) {
			curves, err := robust.RunSweepContext(ctx, g, c, robust.SweepSpec{
				Attack: attack, Params: p, Fracs: []float64{0.05}, Trials: tr, Workers: opts.Workers,
			}, opts.Seed)
			if err != nil {
				return 0, err
			}
			return curves[0].Values[0], nil
		}
		fail, err := at5("random-failure", nil, trials)
		if err != nil {
			return sweeps{}, err
		}
		atk, err := at5("degree", nil, 1)
		if err != nil {
			return sweeps{}, err
		}
		geo, err := at5("geographic", attackreg.Params{"x": 0.5, "y": 0.5}, 1)
		if err != nil {
			return sweeps{}, err
		}
		gap, err := robust.AttackGapContext(ctx, g, c, "degree", nil, fracs, trials, opts.Seed, opts.Workers)
		if err != nil {
			return sweeps{}, err
		}
		crit, err := criticalFraction(ctx, g, c, "degree", 0.1, 25, 1, opts.Seed, opts.Workers)
		if err != nil {
			return sweeps{}, err
		}
		return sweeps{fail: fail, atk: atk, geo: geo, gap: gap, crit: crit}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, e := range entries {
		t.AddRow(e.name, f3(rows[i].fail), f3(rows[i].atk), f3(rows[i].geo), f3(rows[i].gap), f3(rows[i].crit))
	}
	t.Notes = append(t.Notes,
		"attackGap: mean over fractions of LCC(random failure) - LCC(degree attack); larger = more hub-fragile",
		"LCC@5%geo: localized (geographic) failure at the map center — between random failure and hub targeting",
		"trees fragment under any removal; the HOT signature is the spread between the failure and attack columns")
	return t, nil
}

// criticalFraction estimates the removal fraction at which the largest
// component first drops below threshold of the original size, by a
// linear scan over a uniform grid of steps fractions in [0, 1). Returns
// 1 if the network never degrades below the threshold within the grid.
func criticalFraction(ctx context.Context, g *graph.Graph, c *graph.CSR, attack string, threshold float64, steps, trials int, seed int64, workers int) (float64, error) {
	if steps < 1 {
		return 0, errs.BadParamf("experiments: need steps >= 1")
	}
	fracs := make([]float64, steps)
	for i := range fracs {
		fracs[i] = float64(i) / float64(steps)
	}
	curves, err := robust.RunSweepContext(ctx, g, c, robust.SweepSpec{
		Attack: attack, Fracs: fracs, Trials: trials, Workers: workers,
	}, seed)
	if err != nil {
		return 0, err
	}
	for i, lcc := range curves[0].Values {
		if lcc < threshold {
			return fracs[i], nil
		}
	}
	return 1, nil
}

// E9Redundancy regenerates footnote 7 of §4: "adding a path redundancy
// requirement breaks the tree structure of the optimal solution."
func E9Redundancy(opts Options) (*Table, error) {
	n := opts.scale(800)
	reps := opts.reps(5)
	t := &Table{
		ID:    "E9",
		Title: fmt.Sprintf("2-edge-connectivity augmentation of buy-at-bulk trees, %d customers, %d seeds", n, reps),
		Claim: "\"adding a path redundancy requirement breaks the tree structure of the optimal solution\" (§4, footnote 7)",
		Header: []string{
			"stage", "tree", "2edge-conn", "edges(avg)", "leaves(avg)", "cost(avg)", "extraCost%",
		},
	}
	// One unit per replication; reduced in rep order below.
	type repStat struct {
		preTree                         bool
		preEdges, preLeaves, preCost    float64
		post2EC                         bool
		postEdges, postLeaves, postCost float64
	}
	repStats, err := mapUnits(opts, reps, func(rep int) (repStat, error) {
		in, err := access.RandomInstance(access.InstanceConfig{
			N: n, Seed: rng.Derive(opts.Seed, rep),
			DemandMin: 1, DemandMax: 8, RootAtCenter: true,
		})
		if err != nil {
			return repStat{}, err
		}
		net, err := access.MMPIncremental(in, rng.Derive(opts.Seed, 100+rep))
		if err != nil {
			return repStat{}, err
		}
		rs := repStat{
			preTree:   net.Graph.IsTree(),
			preEdges:  float64(net.Graph.NumEdges()),
			preLeaves: float64(len(net.Graph.Leaves())),
			preCost:   net.TotalCost(),
		}
		access.AugmentTwoEdgeConnected(in, net)
		rs.post2EC = net.Graph.IsTwoEdgeConnected()
		rs.postEdges = float64(net.Graph.NumEdges())
		rs.postLeaves = float64(len(net.Graph.Leaves()))
		rs.postCost = net.TotalCost()
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	var preEdges, preLeaves, preCost float64
	var postEdges, postLeaves, postCost float64
	preTrees, post2EC := 0, 0
	for _, rs := range repStats {
		if rs.preTree {
			preTrees++
		}
		preEdges += rs.preEdges
		preLeaves += rs.preLeaves
		preCost += rs.preCost
		if rs.post2EC {
			post2EC++
		}
		postEdges += rs.postEdges
		postLeaves += rs.postLeaves
		postCost += rs.postCost
	}
	rf := float64(reps)
	t.AddRow("tree (before)",
		fmt.Sprintf("%d/%d", preTrees, reps), "0/"+d(reps),
		f2(preEdges/rf), f2(preLeaves/rf), f2(preCost/rf), "-")
	t.AddRow("redundant (after)",
		"0/"+d(reps), fmt.Sprintf("%d/%d", post2EC, reps),
		f2(postEdges/rf), f2(postLeaves/rf), f2(postCost/rf),
		f2(100*(postCost-preCost)/preCost))
	t.Notes = append(t.Notes,
		"after augmentation no degree-1 nodes remain and the minimum cut is 2 — the optimal-design tree shape is gone, at a quantified extra cost")
	return t, nil
}
