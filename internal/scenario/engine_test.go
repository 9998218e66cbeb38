package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
)

func testScenarios() []Scenario {
	return []Scenario{
		{
			Name:     "fkp-profile",
			Generate: GenerateSpec{Model: "fkp", Params: Params{"n": 80, "alpha": 8}},
			Measure:  &MeasureSpec{Profile: true, Degrees: true},
			Attack:   &AttackSpec{Strategy: "degree", Fracs: []float64{0.05, 0.2}},
			Seeds:    []int64{1, 2},
		},
		{
			Name:     "waxman-routed",
			Generate: GenerateSpec{Model: "waxman", Params: Params{"n": 70, "alpha": 0.15, "beta": 0.6}},
			Measure: &MeasureSpec{Degrees: true, Metrics: []MetricSelection{
				{Name: "clustering"},
				{Name: "expansion", Params: Params{"maxh": 2, "sources": 20}},
			}},
			Route: &RouteSpec{Demands: 40, Mode: "maxmin"},
			Reps:  3,
		},
		{
			Name:     "ba-attacked",
			Generate: GenerateSpec{Model: "ba", Params: Params{"n": 90, "m": 2}},
			Route:    &RouteSpec{Demands: 30},
			Attack:   &AttackSpec{Strategy: "random", Trials: 2},
			Reps:     2,
		},
		{
			Name:     "ba-traffic",
			Generate: GenerateSpec{Model: "ba", Params: Params{"n": 90, "m": 2}},
			Traffic:  &TrafficSpec{Model: "gravity", Params: Params{"exponent": 0.5}, Sites: 12},
			Reps:     2,
		},
		{
			Name:     "waxman-hotspot-traffic",
			Generate: GenerateSpec{Model: "waxman", Params: Params{"n": 70, "alpha": 0.15, "beta": 0.6}},
			Measure:  &MeasureSpec{Degrees: true},
			Traffic:  &TrafficSpec{Model: "zipf-hotspot", Sites: 10},
			Reps:     2,
		},
		{
			Name:     "ba-timeline",
			Generate: GenerateSpec{Model: "ba", Params: Params{"n": 60, "m": 2}},
			Traffic:  &TrafficSpec{Model: "bimodal", Sites: 8},
			Timeline: &TimelineSpec{
				Events: []TimelineEventSpec{
					{Event: "fail-node", Node: ip(4), At: fp(1)},
					{Event: "fail-edge", Edge: ip(3), At: fp(2)},
					{Event: "capacity-set", Edge: ip(1), Capacity: fp(3)},
					{Event: "demand-switch", Model: "bimodal", Params: Params{"peak": 0.5}},
					{Event: "repair", Node: ip(4)},
					{Event: "repair", Edge: ip(3)},
				},
				Repeat: 2,
			},
			Reps: 2,
		},
	}
}

func formatAll(results []*Result) string {
	out := ""
	for _, r := range results {
		out += r.Format() + "\n"
	}
	return out
}

// TestScenarioJSONRoundTrip asserts the spec is fully declarative:
// marshal → unmarshal → run produces byte-identical output to running
// the original value.
func TestScenarioJSONRoundTrip(t *testing.T) {
	scs := testScenarios()
	data, err := json.Marshal(scs)
	if err != nil {
		t.Fatal(err)
	}
	var back []Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(nil)
	orig, err := e.RunBatch(context.Background(), scs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh engine so the round-tripped run cannot lean on the first
	// run's snapshot cache.
	rt, err := NewEngine(nil).RunBatch(context.Background(), back, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := formatAll(orig), formatAll(rt)
	if a != b {
		t.Fatalf("round-tripped spec ran differently:\n--- original ---\n%s\n--- round-trip ---\n%s", a, b)
	}
}

// TestRunBatchWorkersDeterminism mirrors experiments.TestWorkersDeterminism
// for the scenario engine: byte-identical tables at any worker count.
func TestRunBatchWorkersDeterminism(t *testing.T) {
	scs := testScenarios()
	seq, err := NewEngine(nil).RunBatch(context.Background(), scs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parl, err := NewEngine(nil).RunBatch(context.Background(), scs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, b := formatAll(seq), formatAll(parl)
	if a != b {
		t.Fatalf("output differs between Workers=1 and Workers=8:\n--- Workers=1 ---\n%s\n--- Workers=8 ---\n%s", a, b)
	}
}

// TestRunBatchCancellation asserts a mid-run cancel surfaces as
// ErrCanceled promptly, long before the batch could finish.
func TestRunBatchCancellation(t *testing.T) {
	// A batch big enough to run for many seconds if not canceled:
	// FKP attachment is O(n^2) with n=20000.
	scs := []Scenario{{
		Generate: GenerateSpec{Model: "fkp", Params: Params{"n": 20000}},
		Measure:  &MeasureSpec{Profile: true},
		Reps:     4,
	}}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := NewEngine(nil).RunBatch(ctx, scs, Options{Workers: 4})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, errs.ErrCanceled) {
			t.Fatalf("canceled batch gave %v, want ErrCanceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v, want prompt return", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled batch did not return")
	}
}

// TestSnapshotCacheSharesTopologies asserts scenarios with the same
// generate identity (model + params + seed) generate exactly once.
func TestSnapshotCacheSharesTopologies(t *testing.T) {
	var calls atomic.Int64
	reg := NewRegistry()
	err := reg.Register(&FuncGenerator{
		GenName: "counted",
		GenParams: []ParamSpec{
			{Name: "n", Kind: Int, Default: 50},
			seedSpec,
		},
		Fn: func(ctx context.Context, p Params) (*graph.Graph, error) {
			calls.Add(1)
			return gen.BarabasiAlbertContext(context.Background(), p.Int("n"), 2, p.Seed())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	scs := []Scenario{
		{Generate: GenerateSpec{Model: "counted"}, Measure: &MeasureSpec{Degrees: true}, Reps: 3},
		{Generate: GenerateSpec{Model: "counted"}, Route: &RouteSpec{Demands: 10}, Reps: 3},
		{Generate: GenerateSpec{Model: "counted"}, Attack: &AttackSpec{}, Reps: 3},
	}
	// All nine replications share three seeds (SeedFor defaults are
	// identical across scenarios), so three generations suffice.
	if _, err := NewEngine(reg).RunBatch(context.Background(), scs, Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("generator ran %d times, want 3 (one per distinct seed)", got)
	}
}

func TestRunBatchRejectsBadSpecs(t *testing.T) {
	cases := []Scenario{
		{Generate: GenerateSpec{Model: "nope"}},
		{Generate: GenerateSpec{Model: "fkp", Params: Params{"bogus": 1}}},
		{Generate: GenerateSpec{Model: "fkp"}, Route: &RouteSpec{Demands: 0}},
		{Generate: GenerateSpec{Model: "fkp"}, Route: &RouteSpec{Demands: 5, Mode: "teleport"}},
		{Generate: GenerateSpec{Model: "fkp"}, Attack: &AttackSpec{Strategy: "nuclear"}},
		{Generate: GenerateSpec{Model: "fkp"}, Attack: &AttackSpec{Fracs: []float64{1.5}}},
		{Generate: GenerateSpec{Model: "fkp"}, Attack: &AttackSpec{Strategy: "geographic", Params: Params{"bogus": 1}}},
		{Generate: GenerateSpec{Model: "fkp"}, Attack: &AttackSpec{Strategy: "preferential", Params: Params{"alpha": -3}}},
		{Generate: GenerateSpec{Model: "fkp"}, Measure: &MeasureSpec{Metrics: []MetricSelection{{Name: "nope"}}}},
		{Generate: GenerateSpec{Model: "fkp"}, Measure: &MeasureSpec{Metrics: []MetricSelection{
			{Name: "clustering"}, {Name: "clustering"}}}},
		{Generate: GenerateSpec{Model: "fkp"}, Measure: &MeasureSpec{Metrics: []MetricSelection{
			{Name: "expansion", Params: Params{"maxh": -1}}}}},
		{Generate: GenerateSpec{Model: "fkp"}, Measure: &MeasureSpec{Metrics: []MetricSelection{
			{Name: "throughput"}}}}, // CapTraffic metric outside the traffic stage
		{Generate: GenerateSpec{Model: "fkp"}, Traffic: &TrafficSpec{Model: "teleport"}},
		{Generate: GenerateSpec{Model: "fkp"}, Traffic: &TrafficSpec{Params: Params{"bogus": 1}}},
		{Generate: GenerateSpec{Model: "fkp"}, Traffic: &TrafficSpec{Model: "gravity", Params: Params{"scale": -2}}},
		{Generate: GenerateSpec{Model: "fkp"}, Traffic: &TrafficSpec{Sites: 1}},
		{Generate: GenerateSpec{Model: "fkp"}, Traffic: &TrafficSpec{Sites: -3}},
	}
	for i, sc := range cases {
		_, err := NewEngine(nil).RunBatch(context.Background(), []Scenario{sc}, Options{})
		if !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("case %d gave %v, want ErrBadParam", i, err)
		}
	}
}

// TestMeasureMetricSet runs a named metric set through the Measure
// stage and checks the values land in replication output and the
// formatted table, in selection order.
func TestMeasureMetricSet(t *testing.T) {
	sc := Scenario{
		Name:     "metric-set",
		Generate: GenerateSpec{Model: "ba", Params: Params{"n": 120, "m": 2}},
		Measure: &MeasureSpec{Metrics: []MetricSelection{
			{Name: "mean-degree"},
			{Name: "diameter"},
			{Name: "lcc"},
		}},
	}
	res, err := NewEngine(nil).Run(context.Background(), sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Reps[0]
	if rep.Profile != nil {
		t.Fatal("metric-set measure should not imply the default profile")
	}
	if len(rep.Metrics) != 3 {
		t.Fatalf("got %d metric values: %v", len(rep.Metrics), rep.Metrics)
	}
	if rep.Metrics["lcc"].Scalar <= 0 || rep.Metrics["mean-degree"].Scalar <= 0 {
		t.Fatalf("implausible metric values: %v", rep.Metrics)
	}
	out := res.Format()
	for _, col := range []string{"mean-degree", "diameter", "lcc"} {
		if !strings.Contains(out, col) {
			t.Errorf("formatted table missing column %q:\n%s", col, out)
		}
	}
}

// TestTrafficStage runs the registry-driven traffic stage end to end:
// demand models from the traffic registry, spec JSON included, produce
// a plausible allocation summary and the formatted columns.
func TestTrafficStage(t *testing.T) {
	spec := `{
		"name": "hotspot",
		"generate": {"model": "ba", "params": {"n": 100, "m": 2}},
		"traffic": {"model": "zipf-hotspot", "params": {"exponent": 1.5}, "sites": 8}
	}`
	scs, err := ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(nil).Run(context.Background(), scs[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Reps[0].Traffic
	if ts == nil {
		t.Fatal("traffic stage produced no summary")
	}
	if ts.Model != "zipf-hotspot" || ts.Sites != 8 {
		t.Fatalf("summary header = %+v", ts)
	}
	if ts.Demands == 0 || ts.Offered <= 0 {
		t.Fatalf("no demand generated: %+v", ts)
	}
	if ts.Throughput <= 0 || ts.Throughput > ts.Offered+1e-9 {
		t.Fatalf("throughput %v outside (0, offered=%v]", ts.Throughput, ts.Offered)
	}
	if ts.DeliveredFrac <= 0 || ts.DeliveredFrac > 1+1e-9 {
		t.Fatalf("delivered fraction %v outside (0, 1]", ts.DeliveredFrac)
	}
	if ts.Jain <= 0 || ts.Jain > 1+1e-9 {
		t.Fatalf("Jain %v outside (0, 1]", ts.Jain)
	}
	out := res.Format()
	for _, col := range []string{"tmodel", "tput", "tdeliv", "tmaxutil", "tjain", "zipf-hotspot"} {
		if !strings.Contains(out, col) {
			t.Errorf("formatted table missing %q:\n%s", col, out)
		}
	}

	// The default model is gravity, and every other built-in runs too.
	for _, model := range []string{"", "gravity", "uniform", "bimodal", "single-epicenter"} {
		sc := Scenario{
			Generate: GenerateSpec{Model: "ba", Params: Params{"n": 60, "m": 2}},
			Traffic:  &TrafficSpec{Model: model},
		}
		res, err := NewEngine(nil).Run(context.Background(), sc, Options{})
		if err != nil {
			t.Fatalf("model %q: %v", model, err)
		}
		ts := res.Reps[0].Traffic
		if ts.Throughput <= 0 {
			t.Fatalf("model %q: throughput = %v", model, ts.Throughput)
		}
		if model == "" && ts.Model != "gravity" {
			t.Fatalf("empty model canonicalized to %q, want gravity", ts.Model)
		}
	}
}

// TestAttackStageRegistryAttacks runs registry attacks — parameterized
// and edge-targeted ones the legacy Strategy enum never knew — through
// the Attack stage, spec JSON included.
func TestAttackStageRegistryAttacks(t *testing.T) {
	spec := `{
		"name": "localized",
		"generate": {"model": "waxman", "params": {"n": 150}},
		"attack": {"strategy": "geographic", "params": {"x": 0.1, "y": 0.1}, "fracs": [0.1, 0.5, 1]}
	}`
	scs, err := ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(nil).Run(context.Background(), scs[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	curve := res.Reps[0].Attack
	if len(curve) != 3 {
		t.Fatalf("attack curve = %+v", curve)
	}
	if curve[0].LCCFrac <= 0 || curve[2].LCCFrac != 0 {
		t.Fatalf("geographic attack curve implausible: %+v", curve)
	}
	for _, strategy := range []string{"random-edge", "bottleneck-edge", "preferential"} {
		sc := Scenario{
			Generate: GenerateSpec{Model: "ba", Params: Params{"n": 80, "m": 2}},
			Attack:   &AttackSpec{Strategy: strategy, Fracs: []float64{0.2}},
		}
		res, err := NewEngine(nil).Run(context.Background(), sc, Options{})
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if got := res.Reps[0].Attack[0].LCCFrac; got <= 0 || got > 1 {
			t.Fatalf("%s: LCC@0.2 = %v", strategy, got)
		}
	}
}

func TestParseSpecForms(t *testing.T) {
	single := `{"generate": {"model": "fkp", "params": {"n": 50}}}`
	array := `[{"generate": {"model": "fkp"}}, {"generate": {"model": "ba"}}]`
	batch := `{"scenarios": [{"generate": {"model": "fkp"}}]}`
	if scs, err := ParseSpec([]byte(single)); err != nil || len(scs) != 1 {
		t.Fatalf("single: %v %d", err, len(scs))
	}
	if scs, err := ParseSpec([]byte(array)); err != nil || len(scs) != 2 {
		t.Fatalf("array: %v %d", err, len(scs))
	}
	if scs, err := ParseSpec([]byte(batch)); err != nil || len(scs) != 1 {
		t.Fatalf("batch: %v %d", err, len(scs))
	}
	if _, err := ParseSpec([]byte(`{"generate": {"model": "fkp"}, "typo": 1}`)); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("unknown field gave %v, want ErrBadParam", err)
	}
	if _, err := ParseSpec([]byte("not json")); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("garbage gave %v, want ErrBadParam", err)
	}
}

func TestSeedForSemantics(t *testing.T) {
	sc := Scenario{Seeds: []int64{10, 20}, Reps: 4}
	if sc.NumReps() != 4 {
		t.Fatalf("NumReps = %d, want 4", sc.NumReps())
	}
	if sc.SeedFor(0) != 10 || sc.SeedFor(1) != 20 {
		t.Fatal("explicit seeds not honored")
	}
	if sc.SeedFor(2) == sc.SeedFor(3) {
		t.Fatal("derived seeds collide")
	}
	var zero Scenario
	if zero.NumReps() != 1 {
		t.Fatalf("zero scenario NumReps = %d, want 1", zero.NumReps())
	}
	if zero.SeedFor(0) != 1 {
		t.Fatalf("zero scenario SeedFor(0) = %d, want generator default 1", zero.SeedFor(0))
	}
	// Without explicit Seeds, the generator's "seed" parameter is the
	// base: rep 0 uses it verbatim, later reps derive from it.
	withParam := Scenario{Generate: GenerateSpec{Model: "ba", Params: Params{"seed": 42}}, Reps: 3}
	if withParam.SeedFor(0) != 42 {
		t.Fatalf("params seed ignored: SeedFor(0) = %d, want 42", withParam.SeedFor(0))
	}
	if withParam.SeedFor(1) == 42 || withParam.SeedFor(1) == withParam.SeedFor(2) {
		t.Fatal("derived seeds should differ from the base and each other")
	}
}

// TestParamsSeedHonored asserts a spec that sets generate.params.seed
// runs exactly that topology (the topogen -seed equivalence).
func TestParamsSeedHonored(t *testing.T) {
	sc := Scenario{Generate: GenerateSpec{Model: "ba", Params: Params{"n": 50, "seed": 42}}}
	res, err := NewEngine(nil).Run(context.Background(), sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reps[0].Seed != 42 {
		t.Fatalf("rep ran with seed %d, want 42", res.Reps[0].Seed)
	}
	want, err := Default().GenerateByName(context.Background(), "ba", Params{"n": 50, "seed": 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reps[0].Edges != want.NumEdges() {
		t.Fatalf("scenario topology differs from direct generation: %d vs %d edges",
			res.Reps[0].Edges, want.NumEdges())
	}
}
