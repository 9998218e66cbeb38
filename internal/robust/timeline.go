package robust

import (
	"context"

	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/metricreg"
)

// Timeline engine: reverse union-find over failure/repair timelines.
// Deletions are hard for union-find but insertions are trivial, so a
// run of failures is replayed backwards — start from the state after
// it, re-add the failed items in reverse order, and record the largest
// component after each re-addition. A failure/repair timeline also
// re-inserts going forward, which plain union-find cannot undo, so the
// engine splits the timeline at direction switches into monotone epochs
// — a maximal run of fail events, or a maximal run of repair events —
// and pays one O((n+m) α) disjoint-set rebuild per epoch:
//
//   - A repair epoch is pure insertion, union-find's native direction:
//     rebuild the forest at the epoch's entry state, then union each
//     repaired item forward, recording the largest component after each
//     event.
//   - A fail epoch is replayed in reverse: rebuild the forest at the
//     epoch's *exit* state, re-add the failed items backwards recording
//     sizes, then restore the exit masks. A robustness sweep's removal
//     schedule is a single fail epoch.
//
// An entire outage-and-recovery trajectory of E epochs costs
// O(E·(n+m)α + events) instead of one full masked traversal per event —
// TestTimelineParity pins it bit-identical to that per-event masked
// reference path, and BenchmarkTimelineEpochVsRecompute measures the
// gap.

// TimelineOp is one connectivity event kind of a timeline.
type TimelineOp int

// Timeline event kinds. Failing an already-failed item and repairing a
// present one are no-ops: the state is unchanged and the recorded
// metric row repeats the previous value.
const (
	// OpFailNode removes a node (and implicitly every incident edge).
	OpFailNode TimelineOp = iota
	// OpFailEdge removes a single edge; its endpoints stay present.
	OpFailEdge
	// OpRepairNode restores a failed node. Incident edges come back
	// live unless individually failed or attached to a failed neighbor.
	OpRepairNode
	// OpRepairEdge restores a failed edge. It carries connectivity only
	// while both endpoints are present.
	OpRepairEdge
)

// String names the op with the scenario-spec event vocabulary.
func (op TimelineOp) String() string {
	switch op {
	case OpFailNode:
		return "fail-node"
	case OpFailEdge:
		return "fail-edge"
	case OpRepairNode:
		return "repair-node"
	case OpRepairEdge:
		return "repair-edge"
	default:
		return "unknown"
	}
}

// isRemoval reports whether the op destroys connectivity (a fail) as
// opposed to restoring it (a repair) — the epoch-splitting direction.
func (op TimelineOp) isRemoval() bool { return op == OpFailNode || op == OpFailEdge }

// TimelineEvent is one connectivity event: an op applied to a node or
// edge id (per the op's target kind).
type TimelineEvent struct {
	Op TimelineOp
	ID int
}

// TimelineMode selects the timeline engine's evaluation path.
type TimelineMode int

// Evaluation paths.
const (
	// TimelineAuto uses the epoch-based engine when the metric set is
	// exactly {"lcc"} and the masked path otherwise.
	TimelineAuto TimelineMode = iota
	// TimelineMasked re-evaluates every metric from scratch after each
	// event — one masked traversal per metric per event. The reference
	// path the epoch engine is pinned against.
	TimelineMasked
	// TimelineEpoch forces the epoch-based engine; only the "lcc"
	// metric supports it.
	TimelineEpoch
)

// String names the mode.
func (m TimelineMode) String() string {
	switch m {
	case TimelineMasked:
		return "masked"
	case TimelineEpoch:
		return "epoch"
	default:
		return "auto"
	}
}

// ParseTimelineMode maps a mode name ("auto", "masked", "epoch") to its
// TimelineMode, wrapping errs.ErrBadParam for unknown names.
func ParseTimelineMode(name string) (TimelineMode, error) {
	switch name {
	case "", "auto":
		return TimelineAuto, nil
	case "masked":
		return TimelineMasked, nil
	case "epoch":
		return TimelineEpoch, nil
	default:
		return 0, errs.BadParamf("robust: unknown timeline mode %q", name)
	}
}

// RunTimelineContext traces a metric set along a failure/repair
// timeline: curves[mi].Values[0] is metric mi on the intact snapshot
// and Values[k] the value after applying events[:k], so each curve has
// len(events)+1 rows. The metric set defaults to {"lcc"}; timelines
// containing edge events support only {"lcc"} (masked accumulators
// evaluate node masks), node-only timelines any CapMasked set. The two
// evaluation paths are bit-identical (TestTimelineParity); both are
// deterministic, so one timeline replayed twice produces byte-identical
// trajectories. Out-of-range ids and invalid modes wrap
// errs.ErrBadParam; cancellation wraps errs.ErrCanceled.
func RunTimelineContext(ctx context.Context, c *graph.CSR, events []TimelineEvent, metricNames []string, mode TimelineMode, seed int64) ([]MetricCurve, error) {
	n, m := c.NumNodes(), c.NumEdges()
	if n == 0 {
		return nil, errs.BadParamf("robust: timeline over empty graph")
	}
	hasEdgeEvents := false
	for i, ev := range events {
		switch ev.Op {
		case OpFailNode, OpRepairNode:
			if ev.ID < 0 || ev.ID >= n {
				return nil, errs.BadParamf("robust: timeline event %d: node %d out of [0,%d)", i, ev.ID, n)
			}
		case OpFailEdge, OpRepairEdge:
			if ev.ID < 0 || ev.ID >= m {
				return nil, errs.BadParamf("robust: timeline event %d: edge %d out of [0,%d)", i, ev.ID, m)
			}
			hasEdgeEvents = true
		default:
			return nil, errs.BadParamf("robust: timeline event %d: unknown op %d", i, ev.Op)
		}
	}
	if len(metricNames) == 0 {
		metricNames = []string{"lcc"}
	}
	onlyLCC := len(metricNames) == 1 && metricNames[0] == "lcc"
	if hasEdgeEvents && !onlyLCC {
		return nil, errs.BadParamf("robust: timelines with edge events trace only the \"lcc\" metric, got %v", metricNames)
	}
	var epoch bool
	switch mode {
	case TimelineAuto:
		epoch = onlyLCC
	case TimelineEpoch:
		if !onlyLCC {
			return nil, errs.BadParamf("robust: epoch path traces only the \"lcc\" metric, got %v", metricNames)
		}
		epoch = true
	case TimelineMasked:
	default:
		return nil, errs.BadParamf("robust: unknown timeline mode %d", mode)
	}

	out := make([]MetricCurve, len(metricNames))
	for mi, name := range metricNames {
		out[mi] = MetricCurve{Name: name, Values: make([]float64, len(events)+1)}
	}
	if epoch {
		sizes, err := epochLCCTrajectory(ctx, c, events)
		if err != nil {
			return nil, err
		}
		for k, sz := range sizes {
			out[0].Values[k] = float64(sz) / float64(n)
		}
		return out, nil
	}
	if err := maskedTimeline(ctx, c, events, metricNames, onlyLCC, seed, out); err != nil {
		return nil, err
	}
	return out, nil
}

// epochLCCTrajectory is the epoch-based engine: sizes[k] = largest
// component size after applying events[:k], with one disjoint-set
// rebuild per monotone epoch. Events are grouped into epochs purely by
// direction (fail vs repair); no-op events stay inside their epoch and
// repeat the neighboring size.
func epochLCCTrajectory(ctx context.Context, c *graph.CSR, events []TimelineEvent) ([]int, error) {
	n := c.NumNodes()
	sizes := make([]int, len(events)+1)
	nodeFailed := make([]bool, n)
	edgeFailed := make([]bool, c.NumEdges())
	endU, endV := edgeEndpoints(c)
	d := newDSU(n)

	// rebuild re-seeds the forest with the current live state: every
	// present node a singleton, every live edge unioned. After it,
	// d.best is the LCC of the current masks.
	rebuild := func() {
		d.reset()
		for v := 0; v < n; v++ {
			if !nodeFailed[v] {
				d.add(v)
			}
		}
		for e := range edgeFailed {
			if !edgeFailed[e] && !nodeFailed[endU[e]] && !nodeFailed[endV[e]] {
				d.union(endU[e], endV[e])
			}
		}
	}
	// unapply restores one failed item and unions it back in — shared
	// by the repair epochs (forward) and the fail epochs (reverse).
	unapply := func(ev TimelineEvent) {
		switch ev.Op {
		case OpFailNode, OpRepairNode:
			v := ev.ID
			nodeFailed[v] = false
			d.add(v)
			c.Neighbors(v, func(u, e int, _ float64) {
				if !nodeFailed[u] && !edgeFailed[e] {
					d.union(int32(v), int32(u))
				}
			})
		case OpFailEdge, OpRepairEdge:
			e := ev.ID
			edgeFailed[e] = false
			if !nodeFailed[endU[e]] && !nodeFailed[endV[e]] {
				d.union(endU[e], endV[e])
			}
		}
	}

	// Every epoch below also records the size at its entry state, so
	// only an empty timeline needs a rebuild of its own for sizes[0].
	if len(events) == 0 {
		rebuild()
		sizes[0] = d.best
	}
	// eff[k-i] records, per epoch, whether event k changed state when
	// applied forward — the reverse replay must skip forward no-ops.
	var eff []bool
	for i := 0; i < len(events); {
		if err := errs.Ctx(ctx); err != nil {
			return nil, err
		}
		removal := events[i].Op.isRemoval()
		j := i
		for j < len(events) && events[j].Op.isRemoval() == removal {
			j++
		}
		if removal {
			// Forward-apply the epoch's masks, recording which events
			// actually changed state, then rebuild at the exit state and
			// replay backwards: d.best before un-applying event k is the
			// LCC after it.
			eff = eff[:0]
			for k := i; k < j; k++ {
				ev := events[k]
				if ev.Op == OpFailNode {
					eff = append(eff, !nodeFailed[ev.ID])
					nodeFailed[ev.ID] = true
				} else {
					eff = append(eff, !edgeFailed[ev.ID])
					edgeFailed[ev.ID] = true
				}
			}
			rebuild()
			for k := j - 1; k >= i; k-- {
				sizes[k+1] = d.best
				if eff[k-i] {
					unapply(events[k])
				}
			}
			sizes[i] = d.best // the replay ends at the entry state
			// The reverse replay restored the entry masks; put the epoch's
			// exit state back (the forest stays stale until the next
			// rebuild).
			for k := i; k < j; k++ {
				if events[k].Op == OpFailNode {
					nodeFailed[events[k].ID] = true
				} else {
					edgeFailed[events[k].ID] = true
				}
			}
		} else {
			// Repairs are insertions — union-find's native direction:
			// rebuild at the entry state and walk forward.
			rebuild()
			sizes[i] = d.best
			for k := i; k < j; k++ {
				ev := events[k]
				var failed bool
				if ev.Op == OpRepairEdge {
					failed = edgeFailed[ev.ID]
				} else {
					failed = nodeFailed[ev.ID]
				}
				if failed {
					unapply(ev)
				}
				sizes[k+1] = d.best
			}
		}
		i = j
	}
	return sizes, nil
}

// maskedTimeline is the reference path: apply each event to the masks
// and re-evaluate every metric from scratch. With edge events the set
// is {"lcc"} via the combined-mask kernel; node-only timelines reuse
// one CapMasked accumulator per metric across all events, exactly like
// the sweep engine.
func maskedTimeline(ctx context.Context, c *graph.CSR, events []TimelineEvent, metricNames []string, onlyLCC bool, seed int64, out []MetricCurve) error {
	n := c.NumNodes()
	nodeFailed := make([]bool, n)
	edgeFailed := make([]bool, c.NumEdges())
	ws := graph.GetWorkspace(n)
	defer ws.Release()

	var accs []metricreg.MaskedAccumulator
	if !onlyLCC {
		mset, err := metricreg.ResolveMasked(metricNames, seed)
		if err != nil {
			return err
		}
		if accs, err = mset.NewAccumulators(); err != nil {
			return err
		}
	}
	evaluate := func(row int) {
		if onlyLCC {
			out[0].Values[row] = float64(c.LargestComponentMixedMasked(ws, nodeFailed, edgeFailed)) / float64(n)
			return
		}
		for mi, acc := range accs {
			out[mi].Values[row] = acc.EvaluateMasked(ws, c, nodeFailed)
		}
	}
	evaluate(0)
	for k, ev := range events {
		if err := errs.Ctx(ctx); err != nil {
			return err
		}
		switch ev.Op {
		case OpFailNode:
			nodeFailed[ev.ID] = true
		case OpFailEdge:
			edgeFailed[ev.ID] = true
		case OpRepairNode:
			nodeFailed[ev.ID] = false
		case OpRepairEdge:
			edgeFailed[ev.ID] = false
		}
		evaluate(k + 1)
	}
	return nil
}
