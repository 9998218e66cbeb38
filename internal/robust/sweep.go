package robust

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/attackreg"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/par"
	"repro/internal/rng"
)

// SweepSpec declares one robustness sweep: a registered attack with
// parameters, the removal fractions to report, and the metric set to
// evaluate along the schedule.
type SweepSpec struct {
	// Attack is an attackreg registry name (aliases accepted; default
	// "random-failure").
	Attack string
	// Params are the attack's parameters, validated against its specs.
	Params attackreg.Params
	// Fracs are the removal fractions in [0, 1]; 1 removes the entire
	// schedule. Fractions are of nodes for node-targeted attacks and of
	// edges for edge-targeted ones.
	Fracs []float64
	// Trials averages randomized schedules (deterministic attacks always
	// use a single pass; <= 0 means 1).
	Trials int
	// Metrics is the masked metric set to trace (default {"lcc"}).
	// Edge-targeted attacks support only {"lcc"}.
	Metrics []string
	// Workers bounds the trial fan-out (<= 0 means GOMAXPROCS); curves
	// are byte-identical for any value.
	Workers int
}

// RunSweepContext is the sweep engine: it resolves the attack in the
// registry, computes one removal schedule per trial, and traces the
// metric set along it. The plain LCC curve replays each schedule as one
// fail epoch of the timeline engine's union-find; any other metric set
// re-evaluates masked accumulators on the shared snapshot at each
// removal fraction. Trials fan out across the worker pool and are
// reduced in trial order, so every curve is byte-identical for any
// worker count and — pinned by the parity tests — for either
// evaluation path. Pass the CSR from an earlier Freeze of g to skip
// re-freezing (nil freezes internally). Invalid specs wrap
// errs.ErrBadParam; cancellation wraps errs.ErrCanceled.
func RunSweepContext(ctx context.Context, g *graph.Graph, c *graph.CSR, spec SweepSpec, seed int64) ([]MetricCurve, error) {
	return sweep(ctx, g, c, spec, seed, false)
}

// sweep is RunSweepContext with the evaluation path exposed: masked
// forces masked re-evaluation even for the plain LCC curve, the parity
// reference the union-find replay is pinned against.
func sweep(ctx context.Context, g *graph.Graph, c *graph.CSR, spec SweepSpec, seed int64, masked bool) ([]MetricCurve, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errs.BadParamf("robust: empty graph")
	}
	if err := ValidateFracs(spec.Fracs); err != nil {
		return nil, err
	}
	atk, resolved, err := attackreg.Default().Resolve(attackreg.Selection{Name: spec.Attack, Params: spec.Params})
	if err != nil {
		return nil, err
	}
	metricNames := spec.Metrics
	if len(metricNames) == 0 {
		metricNames = []string{"lcc"}
	}
	onlyLCC := len(metricNames) == 1 && metricNames[0] == "lcc"
	replay := onlyLCC && !masked
	if atk.Target() == attackreg.Edges && !onlyLCC {
		return nil, errs.BadParamf("robust: edge-removal attack %q supports only the \"lcc\" metric, got %v", atk.Name(), metricNames)
	}
	// Resolve the metric set up front; each trial builds its own
	// accumulators and reuses them across every step of its schedule.
	var mset *metricreg.MaskedSet
	if !replay && atk.Target() == attackreg.Nodes {
		if mset, err = metricreg.ResolveMasked(metricNames, seed); err != nil {
			return nil, err
		}
	}
	trials := spec.Trials
	if atk.Caps()&attackreg.CapRandomized == 0 {
		trials = 1
	}
	if trials < 1 {
		trials = 1
	}
	total := n
	if atk.Target() == attackreg.Edges {
		total = g.NumEdges()
	}
	// Visit fractions in increasing removal-count order so each trial's
	// mask only ever grows; results land at the caller's original index.
	byK := make([]int, len(spec.Fracs))
	for i := range byK {
		byK[i] = i
	}
	sort.SliceStable(byK, func(a, b int) bool { return spec.Fracs[byK[a]] < spec.Fracs[byK[b]] })

	if c == nil {
		c = g.Freeze()
	}
	perTrial := make([][][]float64, trials)
	err = par.ForEachErr(spec.Workers, trials, func(trial int) error {
		if err := errs.Ctx(ctx); err != nil {
			return fmt.Errorf("robust: sweep trial %d: %w", trial, err)
		}
		order, err := atk.Schedule(ctx, g, resolved, rng.Derive(seed, trial))
		if err != nil {
			return fmt.Errorf("robust: sweep trial %d: attack %q: %w", trial, atk.Name(), err)
		}
		if err := checkSchedule(order, total, atk.Name()); err != nil {
			return err
		}
		vals := make([][]float64, len(metricNames))
		for mi := range vals {
			vals[mi] = make([]float64, len(spec.Fracs))
		}
		switch {
		case replay:
			// The whole schedule is one fail epoch: sizes[k] is the LCC
			// after its first k removals.
			op := OpFailNode
			if atk.Target() == attackreg.Edges {
				op = OpFailEdge
			}
			events := make([]TimelineEvent, len(order))
			for k, id := range order {
				events[k] = TimelineEvent{Op: op, ID: id}
			}
			sizes, _, err := epochLCCTrajectory(ctx, c, events)
			if err != nil {
				return fmt.Errorf("robust: sweep trial %d: %w", trial, err)
			}
			for i, f := range spec.Fracs {
				vals[0][i] = float64(sizes[int(f*float64(total))]) / float64(n)
			}
		case atk.Target() == attackreg.Nodes:
			accs, err := mset.NewAccumulators()
			if err != nil {
				return err
			}
			ws := graph.GetWorkspace(n)
			defer ws.Release()
			removed := make([]bool, n)
			prev := 0
			for _, i := range byK {
				k := int(spec.Fracs[i] * float64(total))
				for ; prev < k; prev++ {
					removed[order[prev]] = true
				}
				for mi, acc := range accs {
					vals[mi][i] = acc.EvaluateMasked(ws, c, removed)
				}
			}
		default: // edge-targeted, masked
			ws := graph.GetWorkspace(n)
			defer ws.Release()
			removedEdge := make([]bool, total)
			prev := 0
			for _, i := range byK {
				k := int(spec.Fracs[i] * float64(total))
				for ; prev < k; prev++ {
					removedEdge[order[prev]] = true
				}
				vals[0][i] = float64(c.LargestComponentEdgeMasked(ws, removedEdge)) / float64(n)
			}
		}
		perTrial[trial] = vals
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]MetricCurve, len(metricNames))
	for mi, name := range metricNames {
		out[mi] = MetricCurve{Name: name, Values: make([]float64, len(spec.Fracs))}
	}
	for _, vals := range perTrial {
		for mi := range vals {
			for i, v := range vals[mi] {
				out[mi].Values[i] += v
			}
		}
	}
	for mi := range out {
		for i := range out[mi].Values {
			out[mi].Values[i] /= float64(trials)
		}
	}
	return out, nil
}

// ValidateFracs is the one shared removal-fraction check: every sweep
// fraction must be a real number in [0, 1]. NaN is rejected explicitly
// — it fails both range comparisons, so an inline `f < 0 || f > 1`
// check silently admits it and the schedule prefix `int(NaN * total)`
// is implementation-defined garbage. Both the sweep engine and the
// scenario attack-stage validation call this; errors wrap
// errs.ErrBadParam.
func ValidateFracs(fracs []float64) error {
	for _, f := range fracs {
		if math.IsNaN(f) || f < 0 || f > 1 {
			return errs.BadParamf("robust: removal fraction %v out of [0,1]", f)
		}
	}
	return nil
}

// checkSchedule rejects schedules that are not complete permutations of
// [0, total) — a misbehaving custom attack surfaces as ErrBadParam, not
// an index panic or a silently wrong curve.
func checkSchedule(order []int, total int, name string) error {
	if len(order) != total {
		return errs.BadParamf("robust: attack %q schedule has %d entries, want %d", name, len(order), total)
	}
	seen := make([]bool, total)
	for _, v := range order {
		if v < 0 || v >= total || seen[v] {
			return errs.BadParamf("robust: attack %q schedule is not a permutation of [0,%d)", name, total)
		}
		seen[v] = true
	}
	return nil
}
