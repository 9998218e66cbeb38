package robust

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/errs"
	"repro/internal/graph"
)

// lineGraph builds a path graph 0-1-...-(n-1); edge i joins (i, i+1).
func lineGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{})
	}
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.Edge{U: i, V: i + 1, Weight: 1})
	}
	return g
}

// timelineSchedule builds a deterministic interleaved fail/repair
// schedule over nodes and edges: blocks of failures followed by partial
// repairs, with deliberate no-ops (duplicate fails, repairs of
// never-failed items) mixed in.
func timelineSchedule(g *graph.Graph, seed int64, includeEdges bool) []TimelineEvent {
	r := rand.New(rand.NewSource(seed))
	n, m := g.NumNodes(), g.NumEdges()
	var events []TimelineEvent
	var failedNodes, failedEdges []int
	for block := 0; block < 4; block++ {
		for i := 0; i < 12; i++ {
			if includeEdges && r.Intn(2) == 0 {
				e := r.Intn(m)
				events = append(events, TimelineEvent{Op: OpFailEdge, ID: e})
				failedEdges = append(failedEdges, e)
			} else {
				v := r.Intn(n)
				events = append(events, TimelineEvent{Op: OpFailNode, ID: v})
				failedNodes = append(failedNodes, v)
			}
		}
		// Duplicate fail: re-fail something already failed (no-op).
		if len(failedNodes) > 0 {
			events = append(events, TimelineEvent{Op: OpFailNode, ID: failedNodes[0]})
		}
		// Repair roughly half of what this block failed, plus one repair
		// of a never-failed item (no-op).
		for i := 0; i < 6 && len(failedNodes) > 0; i++ {
			v := failedNodes[len(failedNodes)-1]
			failedNodes = failedNodes[:len(failedNodes)-1]
			events = append(events, TimelineEvent{Op: OpRepairNode, ID: v})
		}
		for i := 0; i < 3 && len(failedEdges) > 0; i++ {
			e := failedEdges[len(failedEdges)-1]
			failedEdges = failedEdges[:len(failedEdges)-1]
			events = append(events, TimelineEvent{Op: OpRepairEdge, ID: e})
		}
		events = append(events, TimelineEvent{Op: OpRepairNode, ID: r.Intn(n)})
		if includeEdges {
			events = append(events, TimelineEvent{Op: OpRepairEdge, ID: r.Intn(m)})
		}
	}
	return events
}

// TestTimelineParity is the engine's core contract: across every
// generator model and seed, for node-only and mixed node/edge
// schedules, the epoch-based trajectory must be bit-for-bit identical
// to the per-event from-scratch masked reference path.
func TestTimelineParity(t *testing.T) {
	for name, g := range parityModels(t) {
		c := g.Freeze()
		for _, includeEdges := range []bool{false, true} {
			events := timelineSchedule(g, 7, includeEdges)
			masked, err := RunTimelineContext(context.Background(), c, events, nil, TimelineMasked, 3)
			if err != nil {
				t.Fatalf("%s masked: %v", name, err)
			}
			epoch, err := RunTimelineContext(context.Background(), c, events, nil, TimelineEpoch, 3)
			if err != nil {
				t.Fatalf("%s epoch: %v", name, err)
			}
			if !reflect.DeepEqual(masked, epoch) {
				t.Fatalf("%s (edges=%v): paths diverged\nmasked: %v\nepoch:  %v",
					name, includeEdges, masked[0].Values, epoch[0].Values)
			}
			auto, err := RunTimelineContext(context.Background(), c, events, []string{"lcc"}, TimelineAuto, 3)
			if err != nil {
				t.Fatalf("%s auto: %v", name, err)
			}
			if !reflect.DeepEqual(masked, auto) {
				t.Fatalf("%s (edges=%v): auto diverged from masked", name, includeEdges)
			}
		}
	}
}

// TestTimelineMultiMetricMasked pins that node-only timelines trace a
// CapMasked metric set through the masked path and that row 0 matches
// the intact snapshot.
func TestTimelineMultiMetricMasked(t *testing.T) {
	g := lineGraph(t, 12)
	c := g.Freeze()
	events := []TimelineEvent{
		{Op: OpFailNode, ID: 5},
		{Op: OpFailNode, ID: 6},
		{Op: OpRepairNode, ID: 5},
	}
	curves, err := RunTimelineContext(context.Background(), c, events, []string{"lcc", "mean-degree"}, TimelineAuto, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 || curves[0].Name != "lcc" || curves[1].Name != "mean-degree" {
		t.Fatalf("unexpected curves: %+v", curves)
	}
	for _, cv := range curves {
		if len(cv.Values) != len(events)+1 {
			t.Fatalf("metric %s: %d rows, want %d", cv.Name, len(cv.Values), len(events)+1)
		}
	}
	if got := curves[0].Values[0]; got != 1 {
		t.Fatalf("intact lcc = %v, want 1", got)
	}
	// Failing nodes 5 and 6 of a 12-line leaves components {0..4}, {7..11}.
	if got := curves[0].Values[2]; got != 5.0/12.0 {
		t.Fatalf("lcc after two fails = %v, want %v", got, 5.0/12.0)
	}
	// Repairing node 5 reattaches 0..5 (edge 5-6 still dead with 6 failed).
	if got := curves[0].Values[3]; got != 6.0/12.0 {
		t.Fatalf("lcc after repair = %v, want %v", got, 6.0/12.0)
	}
}

// TestTimelineEpochEdgeCases walks the epoch boundaries on a small line
// graph where every expected LCC size is computable by hand.
func TestTimelineEpochEdgeCases(t *testing.T) {
	g := lineGraph(t, 8) // nodes 0-7, edges i: (i, i+1)
	c := g.Freeze()
	run := func(events []TimelineEvent, mode TimelineMode) []float64 {
		t.Helper()
		curves, err := RunTimelineContext(context.Background(), c, events, nil, mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		return curves[0].Values
	}
	frac := func(sizes ...int) []float64 {
		out := make([]float64, len(sizes))
		for i, s := range sizes {
			out[i] = float64(s) / 8.0
		}
		return out
	}
	cases := []struct {
		name   string
		events []TimelineEvent
		want   []float64
	}{
		{"empty timeline", nil, frac(8)},
		{"repair never-failed node", []TimelineEvent{
			{Op: OpRepairNode, ID: 3},
		}, frac(8, 8)},
		{"duplicate fail same edge", []TimelineEvent{
			{Op: OpFailEdge, ID: 3}, // splits into {0..3}, {4..7}
			{Op: OpFailEdge, ID: 3}, // no-op
			{Op: OpRepairEdge, ID: 3},
		}, frac(8, 4, 4, 8)},
		{"repair then fail adjacent", []TimelineEvent{
			{Op: OpFailNode, ID: 4},   // {0..3} best
			{Op: OpRepairNode, ID: 4}, // whole line back
			{Op: OpFailNode, ID: 4},   // single-event epochs on both sides
			{Op: OpFailNode, ID: 1},   // {2,3} and {5,6,7}
			{Op: OpRepairNode, ID: 1}, // {0..3}
			{Op: OpRepairNode, ID: 4}, // whole line
			{Op: OpFailEdge, ID: 0},   // {1..7}
			{Op: OpRepairEdge, ID: 0},
		}, frac(8, 4, 8, 4, 3, 4, 8, 7, 8)},
		{"repair node with failed incident edge", []TimelineEvent{
			{Op: OpFailEdge, ID: 3},
			{Op: OpFailNode, ID: 3},   // {4..7}
			{Op: OpRepairNode, ID: 3}, // edge 3 still down: {0..3}, {4..7}
			{Op: OpRepairEdge, ID: 3},
		}, frac(8, 4, 4, 4, 8)},
		{"fail everything then repair everything", func() []TimelineEvent {
			var evs []TimelineEvent
			for v := 0; v < 8; v++ {
				evs = append(evs, TimelineEvent{Op: OpFailNode, ID: v})
			}
			for v := 7; v >= 0; v-- {
				evs = append(evs, TimelineEvent{Op: OpRepairNode, ID: v})
			}
			return evs
		}(), frac(8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8)},
	}
	for _, tc := range cases {
		for _, mode := range []TimelineMode{TimelineEpoch, TimelineMasked} {
			got := run(tc.events, mode)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%s (%s): got %v, want %v", tc.name, mode, got, tc.want)
			}
		}
	}
}

// TestTimelineRepeatDeterminism replays the same repeat-style schedule
// (the event list concatenated with itself) twice and pins the two
// trajectories byte-identical — the determinism contract behind the
// scenario layer's `repeat` field.
func TestTimelineRepeatDeterminism(t *testing.T) {
	g := parityModels(t)["ba/seed=1"]
	c := g.Freeze()
	base := timelineSchedule(g, 13, true)
	doubled := append(append([]TimelineEvent{}, base...), base...)
	first, err := RunTimelineContext(context.Background(), c, doubled, nil, TimelineEpoch, 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunTimelineContext(context.Background(), c, doubled, nil, TimelineEpoch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("repeat schedule replayed twice diverged")
	}
	masked, err := RunTimelineContext(context.Background(), c, doubled, nil, TimelineMasked, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, masked) {
		t.Fatal("repeat schedule: epoch diverged from masked")
	}
}

// TestTimelineValidation covers the ErrBadParam surface.
func TestTimelineValidation(t *testing.T) {
	g := lineGraph(t, 4)
	c := g.Freeze()
	cases := []struct {
		name    string
		events  []TimelineEvent
		metrics []string
		mode    TimelineMode
	}{
		{"node id out of range", []TimelineEvent{{Op: OpFailNode, ID: 4}}, nil, TimelineAuto},
		{"negative node id", []TimelineEvent{{Op: OpRepairNode, ID: -1}}, nil, TimelineAuto},
		{"edge id out of range", []TimelineEvent{{Op: OpFailEdge, ID: 3}}, nil, TimelineAuto},
		{"unknown op", []TimelineEvent{{Op: TimelineOp(99), ID: 0}}, nil, TimelineAuto},
		{"edge events with non-lcc metrics", []TimelineEvent{{Op: OpFailEdge, ID: 0}}, []string{"lcc", "mean-degree"}, TimelineAuto},
		{"epoch with non-lcc metrics", []TimelineEvent{{Op: OpFailNode, ID: 0}}, []string{"mean-degree"}, TimelineEpoch},
		{"unknown mode", []TimelineEvent{{Op: OpFailNode, ID: 0}}, nil, TimelineMode(99)},
	}
	for _, tc := range cases {
		if _, err := RunTimelineContext(context.Background(), c, tc.events, tc.metrics, tc.mode, 1); !errors.Is(err, errs.ErrBadParam) {
			t.Fatalf("%s: err = %v, want ErrBadParam", tc.name, err)
		}
	}
	empty := graph.New(0)
	if _, err := RunTimelineContext(context.Background(), empty.Freeze(), nil, nil, TimelineAuto, 1); !errors.Is(err, errs.ErrBadParam) {
		t.Fatal("empty graph accepted")
	}
}

// TestTimelineCancel pins cancellation wrapping on both paths.
func TestTimelineCancel(t *testing.T) {
	g := parityModels(t)["ba/seed=1"]
	c := g.Freeze()
	events := timelineSchedule(g, 5, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []TimelineMode{TimelineEpoch, TimelineMasked} {
		if _, err := RunTimelineContext(ctx, c, events, nil, mode, 1); !errors.Is(err, errs.ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", mode, err)
		}
	}
}

// TestTimelineModeRoundTrip pins the mode and op name vocabulary.
func TestTimelineModeRoundTrip(t *testing.T) {
	for _, name := range []string{"auto", "masked", "epoch"} {
		m, err := ParseTimelineMode(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.String() != name {
			t.Fatalf("mode %q round-tripped to %q", name, m.String())
		}
	}
	if m, err := ParseTimelineMode(""); err != nil || m != TimelineAuto {
		t.Fatalf("empty mode: %v, %v", m, err)
	}
	if _, err := ParseTimelineMode("bogus"); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("bogus mode: %v", err)
	}
	ops := map[TimelineOp]string{
		OpFailNode: "fail-node", OpFailEdge: "fail-edge",
		OpRepairNode: "repair-node", OpRepairEdge: "repair-edge",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Fatalf("op %d named %q, want %q", op, op.String(), want)
		}
	}
}

// TestValidateFracs pins the shared fraction check: NaN must be
// rejected explicitly — it slips through a bare `f < 0 || f > 1`.
func TestValidateFracs(t *testing.T) {
	if err := ValidateFracs([]float64{0, 0.5, 1}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]float64{
		{math.NaN()},
		{0.5, math.NaN(), 0.9},
		{-0.01},
		{1.01},
		{math.Inf(1)},
	} {
		if err := ValidateFracs(bad); !errors.Is(err, errs.ErrBadParam) {
			t.Fatalf("fracs %v: err = %v, want ErrBadParam", bad, err)
		}
	}
	g := lineGraph(t, 4)
	spec := SweepSpec{Fracs: []float64{0, math.NaN()}}
	if _, err := RunSweepContext(context.Background(), g, nil, spec, 1); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("sweep with NaN frac: err = %v, want ErrBadParam", err)
	}
}
