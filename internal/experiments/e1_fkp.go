package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
)

// E1FKPSweep regenerates the paper's §3.1 claim (after Fabrikant et al.):
// sweeping the FKP tradeoff weight alpha moves the generated topology
// through star → power-law tree → exponential tree.
func E1FKPSweep(opts Options) (*Table, error) {
	n := opts.scale(3000)
	reps := opts.reps(5)
	t := &Table{
		ID:    "E1",
		Title: fmt.Sprintf("FKP alpha sweep, n=%d, %d seeds per alpha", n, reps),
		Claim: "\"by changing the relative importance of these two factors ... the resulting topology can exhibit a range of hierarchical structures, from simple star-networks to trees\" and degree distributions \"either exponential or of the power-law type\" (§3.1)",
		Header: []string{
			"alpha", "regime(theory)", "class(majority)", "starFrac",
			"maxDeg", "plAlpha", "tailKind", "treeOK",
		},
	}
	type sweepPoint struct {
		alpha  float64
		regime string
	}
	points := []sweepPoint{
		{0.3, "star (alpha < sqrt(2))"},
		{core.RegimeAlpha(core.RegimeStar, n), "star (alpha < sqrt(2))"},
		{4, "power law (4 <= alpha <= o(sqrt n))"},
		{core.RegimeAlpha(core.RegimePowerLaw, n), "power law (4 <= alpha <= o(sqrt n))"},
		{math.Sqrt(float64(n)), "transition (~sqrt n)"},
		{core.RegimeAlpha(core.RegimeExponential, n), "exponential (alpha >> sqrt n)"},
		{4 * float64(n), "exponential (alpha >> sqrt n)"},
	}
	// One unit per (alpha point, replication), fanned across the worker
	// pool; reduction below walks the ordered slice, so the table is
	// identical for any Workers value.
	type repStat struct {
		isTree   bool
		class    core.TopologyClass
		starFrac float64
		maxDeg   float64
		plAlpha  float64
		tail     stats.TailKind
	}
	repStats, err := mapUnits(opts, len(points)*reps, func(u int) (repStat, error) {
		pt, rep := points[u/reps], u%reps
		g, err := core.FKPContext(opts.ctx(), core.FKPConfig{
			N: n, Alpha: pt.alpha, Seed: rng.Derive(opts.Seed, rep),
		})
		if err != nil {
			return repStat{}, err
		}
		ds := stats.AnalyzeDegrees(g)
		return repStat{
			isTree:   g.IsTree(),
			class:    core.Classify(g, ds),
			starFrac: ds.TopDegreeFrac,
			maxDeg:   float64(ds.MaxDegree),
			plAlpha:  ds.Classification.PowerLaw.Alpha,
			tail:     ds.Classification.Kind,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, pt := range points {
		classCount := map[core.TopologyClass]int{}
		var starFrac, maxDeg, plAlpha float64
		tails := map[stats.TailKind]int{}
		allTrees := true
		for _, rs := range repStats[pi*reps : (pi+1)*reps] {
			if !rs.isTree {
				allTrees = false
			}
			classCount[rs.class]++
			starFrac += rs.starFrac
			maxDeg += rs.maxDeg
			plAlpha += rs.plAlpha
			tails[rs.tail]++
		}
		rf := float64(reps)
		t.AddRow(
			f2(pt.alpha), pt.regime,
			majorityClass(classCount).String(),
			f3(starFrac/rf), f2(maxDeg/rf), f2(plAlpha/rf),
			majorityTail(tails).String(),
			fmt.Sprintf("%v", allTrees),
		)
	}
	// Ablation: centrality definition at the power-law alpha.
	modes := []core.CentralityMode{core.HopsToRoot, core.DistToRoot}
	modeNotes, err := mapUnits(opts, len(modes), func(mi int) (string, error) {
		g, err := core.FKPContext(opts.ctx(), core.FKPConfig{
			N: n, Alpha: 8, Seed: opts.Seed, Centrality: modes[mi],
		})
		if err != nil {
			return "", err
		}
		ds := stats.AnalyzeDegrees(g)
		return fmt.Sprintf(
			"ablation centrality=%s @ alpha=8: class=%s maxDeg=%d tail=%s",
			modes[mi], core.Classify(g, ds), ds.MaxDegree, ds.Classification.Kind), nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, modeNotes...)
	// Ablation: router port cap (technology constraint, §2.1).
	g, err := core.FKPContext(opts.ctx(), core.FKPConfig{N: n, Alpha: 0.3, Seed: opts.Seed, MaxDegree: 32})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"ablation maxDegree=32 @ alpha=0.3 (would-be star): class=%s maxDeg=%d — port limits forbid the star the pure optimization wants",
		core.Classify(g, stats.AnalyzeDegrees(g)), g.MaxDegree()))
	return t, nil
}

func majorityClass(m map[core.TopologyClass]int) core.TopologyClass {
	best, bestN := core.ClassOther, -1
	for k, v := range m {
		if v > bestN || (v == bestN && k < best) {
			best, bestN = k, v
		}
	}
	return best
}

func majorityTail(m map[stats.TailKind]int) stats.TailKind {
	best, bestN := stats.TailUndetermined, -1
	for k, v := range m {
		if v > bestN || (v == bestN && k < best) {
			best, bestN = k, v
		}
	}
	return best
}
