package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/errs"
)

func ip(v int) *int         { return &v }
func fp(v float64) *float64 { return &v }

// timelineScenario is the full-vocabulary temporal scenario: node and
// edge failures with repairs interleaved with a capacity change and a
// peak → offpeak demand switch, on top of a seeded traffic stage.
func timelineScenario(mode string) Scenario {
	return Scenario{
		Name:     "tl-" + mode,
		Generate: GenerateSpec{Model: "ba", Params: Params{"n": 80, "m": 2}},
		Traffic:  &TrafficSpec{Model: "bimodal", Sites: 10},
		Timeline: &TimelineSpec{
			Mode: mode,
			Events: []TimelineEventSpec{
				{Event: "fail-node", Node: ip(3), At: fp(0.5)},
				{Event: "fail-node", Node: ip(7), At: fp(1)},
				{Event: "fail-edge", Edge: ip(5), At: fp(1)},
				{Event: "repair", Node: ip(3), At: fp(2.5)},
				{Event: "capacity-set", Edge: ip(2), Capacity: fp(2.5)},
				{Event: "demand-switch", Model: "bimodal", Params: Params{"peak": 0.25, "offpeak": 1}},
				{Event: "repair", Edge: ip(5)},
				{Event: "repair", Node: ip(7)},
			},
		},
		Seeds: []int64{1, 2},
	}
}

// TestTimelineStage runs the full-vocabulary scenario and checks each
// point's shape: ordered indices, connectivity metrics on every row,
// traffic summaries exactly on the capacity-set/demand-switch rows, and
// time annotations echoed through.
func TestTimelineStage(t *testing.T) {
	res, err := NewEngine(nil).Run(context.Background(), timelineScenario(""), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reps) != 2 {
		t.Fatalf("%d reps, want 2", len(res.Reps))
	}
	for ri, rep := range res.Reps {
		pts := rep.Timeline
		if len(pts) != 8 {
			t.Fatalf("rep %d: %d points, want 8", ri, len(pts))
		}
		for i, pt := range pts {
			if pt.Index != i {
				t.Fatalf("rep %d point %d has index %d", ri, i, pt.Index)
			}
			if _, ok := pt.Metrics["lcc"]; !ok {
				t.Fatalf("rep %d point %d missing lcc metric", ri, i)
			}
			isTraffic := pt.Event == "capacity-set" || pt.Event == "demand-switch"
			if isTraffic != (pt.Traffic != nil) {
				t.Fatalf("rep %d point %d (%s): traffic summary presence = %v", ri, i, pt.Event, pt.Traffic != nil)
			}
		}
		if got := *pts[0].Time; got != 0.5 {
			t.Fatalf("rep %d: point 0 time %v, want 0.5", ri, got)
		}
		if pts[6].Time != nil {
			t.Fatalf("rep %d: unannotated point carries time %v", ri, *pts[6].Time)
		}
		// The intact topology is restored by the tail repairs, so the
		// final connectivity row matches an untouched graph: lcc = 1 for
		// a connected BA topology.
		if got := pts[7].Metrics["lcc"]; got != 1 {
			t.Fatalf("rep %d: final lcc %v, want 1", ri, got)
		}
		// The demand switch inverts peak/offpeak, so its traffic row must
		// differ from the capacity-set row evaluated under the initial
		// model.
		if pts[4].Traffic.Throughput == pts[5].Traffic.Throughput {
			t.Fatalf("rep %d: demand switch left throughput unchanged (%v)", ri, pts[5].Traffic.Throughput)
		}
		if pts[5].Traffic.Model != "bimodal" {
			t.Fatalf("rep %d: traffic row model %q", ri, pts[5].Traffic.Model)
		}
	}
	// The formatted table carries the timeline column.
	text := res.Format()
	if !strings.Contains(text, "timeline(lcc)") || !strings.Contains(text, "4:capacity-set=tput:") {
		t.Fatalf("formatted output missing timeline column:\n%s", text)
	}
}

// TestTimelineModeParity is the acceptance criterion at the scenario
// layer: the epoch and masked paths must render byte-identical results,
// at Workers=1 and Workers=8 (run under -race in CI).
func TestTimelineModeParity(t *testing.T) {
	outputs := map[string]string{}
	for _, mode := range []string{"epoch", "masked"} {
		sc := timelineScenario(mode)
		sc.Name = "tl" // identical name so the rendered tables align
		for _, workers := range []int{1, 8} {
			res, err := NewEngine(nil).Run(context.Background(), sc, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", mode, workers, err)
			}
			outputs[mode+"/"+string(rune('0'+workers))] = res.Format()
		}
	}
	want := outputs["epoch/1"]
	for key, got := range outputs {
		if got != want {
			t.Fatalf("output diverged at %s:\n--- epoch/1 ---\n%s\n--- %s ---\n%s", key, want, key, got)
		}
	}
}

// TestTimelineRepeat pins repeat semantics: the schedule replays
// back-to-back without state reset, and two runs of the same repeated
// scenario are byte-identical.
func TestTimelineRepeat(t *testing.T) {
	sc := Scenario{
		Generate: GenerateSpec{Model: "ba", Params: Params{"n": 60, "m": 2}},
		Timeline: &TimelineSpec{
			Repeat: 2,
			Events: []TimelineEventSpec{
				{Event: "fail-node", Node: ip(5)},
				{Event: "fail-node", Node: ip(9)},
				{Event: "repair", Node: ip(5)},
				{Event: "repair", Node: ip(9)},
			},
		},
		Reps: 1,
	}
	run := func() *Result {
		t.Helper()
		res, err := NewEngine(nil).Run(context.Background(), sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	pts := a.Reps[0].Timeline
	if len(pts) != 8 {
		t.Fatalf("%d points, want 8 (4 events x repeat 2)", len(pts))
	}
	// Both cycles end fully repaired, and the second cycle retraces the
	// first because state carries over into an identical configuration.
	for i := 0; i < 4; i++ {
		if pts[i].Metrics["lcc"] != pts[i+4].Metrics["lcc"] {
			t.Fatalf("cycle divergence at event %d: %v vs %v", i, pts[i].Metrics["lcc"], pts[i+4].Metrics["lcc"])
		}
	}
	if af, bf := a.Format(), b.Format(); af != bf {
		t.Fatalf("repeat scenario not deterministic:\n%s\nvs\n%s", af, bf)
	}
}

// TestTimelineRejectsBadSpecs covers the static validation surface.
func TestTimelineRejectsBadSpecs(t *testing.T) {
	tl := func(spec TimelineSpec) Scenario {
		return Scenario{Generate: GenerateSpec{Model: "ba", Params: Params{"n": 40}}, Timeline: &spec}
	}
	cases := []Scenario{
		tl(TimelineSpec{}), // no events
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "melt-down", Node: ip(1)}}}),
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-node"}}}),                                      // missing node
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-node", Node: ip(1), Edge: ip(1)}}}),            // stray edge
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-edge", Node: ip(1)}}}),                         // wrong target
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "repair"}}}),                                         // no target
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "repair", Node: ip(1), Edge: ip(2)}}}),               // both targets
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-node", Node: ip(-1)}}}),                        // negative id
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "capacity-set", Edge: ip(1)}}}),                      // missing capacity
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "capacity-set", Edge: ip(1), Capacity: fp(0)}}}),     // zero capacity
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "capacity-set", Edge: ip(1), Capacity: fp(-2)}}}),    // negative
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-node", Node: ip(1), Capacity: fp(1)}}}),        // stray capacity
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-node", Node: ip(1), Model: "gravity"}}}),       // stray model
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "demand-switch", Model: "teleport"}}}),               // unknown model
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "demand-switch", Params: Params{"bogus": 1}}}}),      // bad params
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-node", Node: ip(1), At: fp(1), Step: ip(1)}}}), // both clocks
		tl(TimelineSpec{Events: []TimelineEventSpec{ // at sequence decreases
			{Event: "fail-node", Node: ip(1), At: fp(2)},
			{Event: "fail-node", Node: ip(2), At: fp(1)},
		}}),
		tl(TimelineSpec{Events: []TimelineEventSpec{ // step sequence decreases
			{Event: "fail-node", Node: ip(1), Step: ip(2)},
			{Event: "fail-node", Node: ip(2), Step: ip(1)},
		}}),
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-node", Node: ip(1), Step: ip(-1)}}}),
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-node", Node: ip(1)}}, Repeat: -1}),
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-node", Node: ip(1)}}, Repeat: maxTimelineEvents + 1}),
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-node", Node: ip(1)}}, Mode: "psychic"}),
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-node", Node: ip(1)}}, Metrics: []string{"lcc", "lcc"}}),
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-node", Node: ip(1)}}, Metrics: []string{"spectral-gap"}}),       // not CapMasked
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-edge", Edge: ip(1)}}, Metrics: []string{"lcc", "mean-degree"}}), // edge events beyond lcc
		// Runtime range failures: ids past the generated topology.
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-node", Node: ip(40)}}}),
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "fail-edge", Edge: ip(1 << 29)}}}),
		tl(TimelineSpec{Events: []TimelineEventSpec{{Event: "capacity-set", Edge: ip(1 << 29), Capacity: fp(1)}}}),
	}
	for i, sc := range cases {
		_, err := NewEngine(nil).RunBatch(context.Background(), []Scenario{sc}, Options{})
		if !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("case %d gave %v, want ErrBadParam", i, err)
		}
	}
}

// TestSingleScenarioPartialTrailer pins that a lone Result rendered by
// Format carries the PARTIAL trailer — the single-scenario surface must
// not be mistakable for a complete run.
func TestSingleScenarioPartialTrailer(t *testing.T) {
	sc := timelineScenario("")
	complete, err := NewEngine(nil).Run(context.Background(), sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(complete.Format(), "PARTIAL") {
		t.Fatalf("complete run rendered PARTIAL:\n%s", complete.Format())
	}
	partial := &Result{Scenario: sc, Reps: complete.Reps[:1], Partial: true}
	text := partial.Format()
	if !strings.Contains(text, "# PARTIAL: 1 of 2 reps") {
		t.Fatalf("partial run missing trailer:\n%s", text)
	}
}

// FuzzTimelineSpec pushes arbitrary event lists through JSON parse,
// validation, and replay on a tiny topology: any outcome is fine except
// a panic or an error that is not ErrBadParam/ErrCanceled.
func FuzzTimelineSpec(f *testing.F) {
	seedSpecs := []string{
		`{"events":[{"event":"fail-node","node":2}]}`,
		`{"events":[{"event":"fail-edge","edge":0},{"event":"repair","edge":0}],"repeat":3}`,
		`{"events":[{"event":"capacity-set","edge":1,"capacity":2.0},{"event":"demand-switch","model":"bimodal"}]}`,
		`{"events":[{"event":"fail-node","node":1,"at":0.5},{"event":"repair","node":1,"at":1.5}],"mode":"epoch"}`,
		`{"events":[{"event":"fail-node","node":9999}]}`,
		`{"events":[{"event":"repair"}],"metrics":["lcc","mean-degree"]}`,
	}
	for _, s := range seedSpecs {
		f.Add([]byte(s))
	}
	eng := NewEngine(nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		var tl TimelineSpec
		if err := json.Unmarshal(data, &tl); err != nil {
			return
		}
		sc := Scenario{
			Generate: GenerateSpec{Model: "ba", Params: Params{"n": 12, "m": 1}},
			Timeline: &tl,
			Reps:     1,
		}
		_, err := eng.Run(context.Background(), sc, Options{})
		if err != nil && !errors.Is(err, errs.ErrBadParam) && !errors.Is(err, errs.ErrCanceled) {
			t.Fatalf("spec %s: unexpected error class: %v", data, err)
		}
	})
}
