// Package robust implements the failure/attack harness for experiment E8:
// the HOT prediction (paper §3.1) that optimization-designed topologies
// are "robust yet fragile" — they tolerate the random component failures
// they were implicitly designed around, while targeted removal of their
// rare, load-bearing hubs causes disproportionate damage.
//
// Attacks live in the attack registry (internal/attackreg): every node-
// or edge-removal strategy is registered by name with typed parameters,
// mirroring the generator and metric registries. The sweep engine
// (RunSweepContext) traces a metric set along each attack schedule. The
// metric set picks the evaluation path: the plain LCC curve replays the
// whole schedule backwards through the timeline engine's union-find
// (near-linear in the schedule), and any other CapMasked set
// re-evaluates masked accumulators at each removal fraction. The two
// paths are bit-for-bit identical on the LCC curve.
package robust

import (
	"context"

	"repro/internal/attackreg"
	"repro/internal/errs"
	"repro/internal/graph"
)

// SweepPoint is connectivity after removing a fraction of nodes.
type SweepPoint struct {
	FracRemoved float64
	// LCCFrac is the largest connected component size divided by the
	// original node count.
	LCCFrac float64
}

// MetricCurve is one masked metric's sweep output: Values[i] is the
// metric evaluated after removing the fraction of nodes (or edges, for
// edge-targeted attacks) at the caller's fracs[i] (averaged over trials
// for randomized attacks).
type MetricCurve struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// AttackGapContext summarizes robust-yet-fragile in one number: the
// mean, over fracs, of the LCC under uniform random removal minus the
// LCC under the named attack (positive = the attack hurts more than
// failures; larger = more fragile to targeting). The attack is a
// registry name with optional parameters; pass the CSR from an earlier
// Freeze of g to skip re-freezing (nil freezes internally), and workers
// bounds the trial fan-out. The baseline is the uniform random removal
// over the attack's own target — random-failure for node attacks,
// random-edge for edge attacks, so both curves share one removal
// denominator — averaged over trials; the attack side uses a single
// pass when the attack is deterministic and the same trial count
// otherwise. An empty fracs list wraps errs.ErrBadParam.
func AttackGapContext(ctx context.Context, g *graph.Graph, c *graph.CSR, attack string, p attackreg.Params, fracs []float64, trials int, seed int64, workers int) (float64, error) {
	if len(fracs) == 0 {
		return 0, errs.BadParamf("robust: attack gap needs at least one removal fraction")
	}
	atk, err := attackreg.Lookup(attack)
	if err != nil {
		return 0, err
	}
	randCurve, err := RunSweepContext(ctx, g, c, SweepSpec{
		Attack: BaselineFor(atk.Target()), Fracs: fracs, Trials: trials, Workers: workers,
	}, seed)
	if err != nil {
		return 0, err
	}
	atkCurve, err := RunSweepContext(ctx, g, c, SweepSpec{
		Attack: attack, Params: p, Fracs: fracs, Trials: trials, Workers: workers,
	}, seed)
	if err != nil {
		return 0, err
	}
	gap := 0.0
	for i := range fracs {
		gap += randCurve[0].Values[i] - atkCurve[0].Values[i]
	}
	return gap / float64(len(fracs)), nil
}

// BaselineFor returns the uniform random-removal attack matching a
// schedule target — the denominator-consistent baseline for attack-gap
// comparisons.
func BaselineFor(target attackreg.Target) string {
	if target == attackreg.Edges {
		return "random-edge"
	}
	return "random-failure"
}
