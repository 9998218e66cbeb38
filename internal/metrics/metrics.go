// Package metrics bundles the topology comparison metrics the paper
// points to (reference [30], Tangmunarunkit et al., "Network topology
// generators: Degree-based vs. structural"): expansion, resilience, and
// distortion, plus hierarchy depth and a spectral characterization.
//
// These metrics are what experiment E7 uses to demonstrate the paper's
// §1 claim: a generator tuned to match one metric (the degree
// distribution) can still "look very dissimilar on others."
//
// Every metric is registered by name in internal/metricreg
// ("expansion", "resilience", "distortion", "hierarchy-depth",
// "spectral-gap", ...), which is the one way to evaluate it. This
// package only names the comparison battery: ProfileSet is the metric
// set with its sampling budgets, and ProfileContext evaluates it as one
// fused schedule on a shared frozen snapshot (reductions in fixed
// order, so results are identical for any worker count) and bundles the
// values into a Profile. The golden parity test pins its numbers.
package metrics

import (
	"context"

	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/params"
)

// Profile bundles the comparison metrics for one topology, as used by
// experiment E7.
type Profile struct {
	Nodes, Edges   int
	MaxDegree      int
	ExpansionAt3   float64 // fraction of graph within 3 hops (averaged)
	Resilience     float64
	Distortion     float64
	HierarchyDepth float64
	SpectralGap    float64
}

// ProfileSet is the metric set ProfileContext evaluates: the [30]-style
// comparison battery with deterministic sampling budgets suitable for
// graphs up to a few thousand nodes. Callers composing their own sets
// (scenario Measure stages, cmd/topostats -metrics) can start from it.
func ProfileSet() []metricreg.Selection {
	return []metricreg.Selection{
		{Name: "expansion", Params: params.Params{"maxh": 3, "sources": 50}},
		{Name: "resilience", Params: params.Params{"steps": 10, "trials": 3}},
		{Name: "distortion", Params: params.Params{"sample": 2000}},
		{Name: "hierarchy-depth"},
		{Name: "spectral-gap", Params: params.Params{"iters": 150}},
	}
}

// ProfileContext evaluates ProfileSet on g with cancellation and an
// optional pre-frozen snapshot: pass the CSR from an earlier Freeze of g
// to skip re-freezing (nil freezes internally). workers bounds each
// fan-out level (<= 0 means GOMAXPROCS); results are identical for any
// value. Every metric checks ctx at its iteration boundaries; the first
// (lowest task index) cancellation or failure is returned.
func ProfileContext(ctx context.Context, g *graph.Graph, c *graph.CSR, seed int64, workers int) (Profile, error) {
	vals, err := metricreg.Evaluate(ctx, metricreg.NewSource(g, c), ProfileSet(),
		metricreg.Options{Workers: workers, Seed: seed})
	if err != nil {
		return Profile{}, err
	}
	p := Profile{
		Nodes:          g.NumNodes(),
		Edges:          g.NumEdges(),
		MaxDegree:      g.MaxDegree(),
		Resilience:     vals["resilience"].Scalar,
		Distortion:     vals["distortion"].Scalar,
		HierarchyDepth: vals["hierarchy-depth"].Scalar,
		SpectralGap:    vals["spectral-gap"].Scalar,
	}
	if s := vals["expansion"].Series; len(s) > 3 {
		p.ExpansionAt3 = s[3]
	}
	return p, nil
}
