package robust

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/params"
)

// lccSweep runs the plain LCC sweep of one registered attack.
func lccSweep(g *graph.Graph, attack string, fracs []float64, trials int, seed int64) ([]float64, error) {
	curves, err := RunSweepContext(context.Background(), g, nil, SweepSpec{Attack: attack, Fracs: fracs, Trials: trials}, seed)
	if err != nil {
		return nil, err
	}
	return curves[0].Values, nil
}

func star(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{})
	}
	for i := 1; i < n; i++ {
		g.AddEdge(graph.Edge{U: 0, V: i, Weight: 1})
	}
	return g
}

func TestSweepValidation(t *testing.T) {
	if _, err := lccSweep(graph.New(0), "random-failure", []float64{0.1}, 1, 1); err == nil {
		t.Fatal("empty graph should error")
	}
	g := star(10)
	if _, err := lccSweep(g, "random-failure", []float64{1.1}, 1, 1); err == nil {
		t.Fatal("fraction > 1 should error")
	}
	if _, err := lccSweep(g, "random-failure", []float64{-0.1}, 1, 1); err == nil {
		t.Fatal("negative fraction should error")
	}
	// Full removal is a legal sweep point: the curve ends at zero.
	lcc, err := lccSweep(g, "random-failure", []float64{1.0}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lcc[0] != 0 {
		t.Fatalf("full removal LCC frac = %v, want 0", lcc[0])
	}
}

func TestSweepZeroRemovalIsIntact(t *testing.T) {
	g := star(20)
	lcc, err := lccSweep(g, "random-failure", []float64{0}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lcc[0] != 1 {
		t.Fatalf("intact LCC frac = %v, want 1", lcc[0])
	}
}

func TestDegreeAttackKillsStarInstantly(t *testing.T) {
	g := star(100)
	lcc, err := lccSweep(g, "degree", []float64{0.02}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Removing 2 nodes, the first being the hub, shatters the star.
	if lcc[0] > 0.02 {
		t.Fatalf("star survived degree attack: LCC %v", lcc[0])
	}
}

func TestRandomFailureGentlerThanAttackOnStar(t *testing.T) {
	g := star(100)
	gap, err := AttackGapContext(context.Background(), g, nil, "degree", nil, []float64{0.02, 0.05, 0.1}, 20, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gap <= 0 {
		t.Fatalf("star attack gap = %v, want positive (hub attack devastates)", gap)
	}
}

func TestBetweennessAttack(t *testing.T) {
	// A dumbbell: two cliques joined via one relay node. Betweenness
	// attack removes the relay first.
	g := graph.New(9)
	for i := 0; i < 9; i++ {
		g.AddNode(graph.Node{})
	}
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(graph.Edge{U: u, V: v, Weight: 1})
		}
	}
	for u := 5; u < 9; u++ {
		for v := u + 1; v < 9; v++ {
			g.AddEdge(graph.Edge{U: u, V: v, Weight: 1})
		}
	}
	g.AddEdge(graph.Edge{U: 3, V: 4, Weight: 1})
	g.AddEdge(graph.Edge{U: 4, V: 5, Weight: 1})
	lcc, err := lccSweep(g, "betweenness", []float64{0.12}, 1, 1) // removes 1 node
	if err != nil {
		t.Fatal(err)
	}
	// Removing the relay leaves LCC of 4/9.
	if lcc[0] > 0.5 {
		t.Fatalf("betweenness attack failed to cut the dumbbell: %v", lcc[0])
	}
}

func TestSweepMonotoneNonIncreasing(t *testing.T) {
	g, err := gen.BarabasiAlbert(300, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, attack := range []string{"random-failure", "degree", "betweenness"} {
		lcc, err := lccSweep(g, attack, []float64{0, 0.1, 0.2, 0.4, 0.6}, 5, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(lcc); i++ {
			if lcc[i] > lcc[i-1]+1e-9 {
				t.Fatalf("%v curve not non-increasing: %v", attack, lcc)
			}
		}
	}
}

func TestScaleFreeMoreFragileThanRandomGraph(t *testing.T) {
	// The classic HOT-adjacent result: under degree attack, a BA
	// scale-free graph loses connectivity much faster than an ER graph
	// of the same density.
	n := 400
	ba, err := gen.BarabasiAlbert(n, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	er, err := gen.ErdosRenyiGNM(n, ba.NumEdges(), 5)
	if err != nil {
		t.Fatal(err)
	}
	fracs := []float64{0.05, 0.1, 0.2, 0.3}
	gapBA, err := AttackGapContext(context.Background(), ba, nil, "degree", nil, fracs, 10, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	gapER, err := AttackGapContext(context.Background(), er, nil, "degree", nil, fracs, 10, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gapBA <= gapER {
		t.Fatalf("BA attack gap %v should exceed ER %v", gapBA, gapER)
	}
}

func TestMetricSweepMultiMetric(t *testing.T) {
	g, err := gen.BarabasiAlbert(150, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	fracs := []float64{0.05, 0.2, 0.4}
	curves, err := RunSweepContext(context.Background(), g, nil, SweepSpec{
		Attack: "degree", Fracs: fracs, Trials: 1, Metrics: []string{"lcc", "mean-degree"},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 || curves[0].Name != "lcc" || curves[1].Name != "mean-degree" {
		t.Fatalf("curves = %+v", curves)
	}
	for _, c := range curves {
		if len(c.Values) != len(fracs) {
			t.Fatalf("%s: %d values for %d fracs", c.Name, len(c.Values), len(fracs))
		}
		for i := 1; i < len(c.Values); i++ {
			if c.Values[i] > c.Values[i-1] {
				t.Fatalf("%s not non-increasing under degree attack: %v", c.Name, c.Values)
			}
		}
	}
}

func TestMetricSweepMatchesSweep(t *testing.T) {
	// The plain LCC sweep replays through union-find; the masked
	// metric sweep of {"lcc"} must agree with it exactly.
	g, err := gen.BarabasiAlbert(120, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	fracs := []float64{0.1, 0.3}
	lcc, err := lccSweep(g, "random-failure", fracs, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	curves, err := sweep(context.Background(), g, nil, SweepSpec{
		Attack: "random-failure", Fracs: fracs, Trials: 3, Metrics: []string{"lcc"},
	}, 11, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fracs {
		if lcc[i] != curves[0].Values[i] {
			t.Fatalf("frac %v: replay %v != masked %v", fracs[i], lcc[i], curves[0].Values[i])
		}
	}
}

func TestMetricSweepRejections(t *testing.T) {
	g := star(10)
	cases := []struct {
		name    string
		metrics []string
	}{
		{"unknown metric", []string{"nope"}},
		{"non-masked metric", []string{"clustering"}},
	}
	for _, tc := range cases {
		_, err := RunSweepContext(context.Background(), g, nil, SweepSpec{
			Attack: "random-failure", Fracs: []float64{0.1}, Trials: 1, Metrics: tc.metrics,
		}, 1)
		if !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("%s: got %v, want ErrBadParam", tc.name, err)
		}
	}
}

func TestMetricSweepWorkerDeterminism(t *testing.T) {
	g, err := gen.BarabasiAlbert(140, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{
		Attack: "random-failure", Fracs: []float64{0.05, 0.15, 0.35}, Trials: 6,
		Metrics: []string{"lcc", "mean-degree"}, Workers: 1,
	}
	one, err := RunSweepContext(context.Background(), g, nil, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 8
	eight, err := RunSweepContext(context.Background(), g, nil, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("workers=1 vs 8 diverged:\n%v\nvs\n%v", one, eight)
	}
}

// inertAcc implements only the bulk role — a metric registering it
// while declaring CapMasked is misregistered, and the masked sweep must
// reject it rather than panic.
type inertAcc struct{}

func (inertAcc) Finalize() metricreg.Value                                         { return metricreg.Value{} }
func (inertAcc) Run(ctx context.Context, src *metricreg.Source, workers int) error { return nil }

func TestMetricSweepRejectsMisregisteredMaskedMetric(t *testing.T) {
	err := metricreg.Register(&metricreg.FuncMetric{
		MetricName: "test-bad-masked",
		MetricCaps: metricreg.CapMasked,
		NewFn:      func(params.Params, int64) metricreg.Accumulator { return inertAcc{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	g := star(12)
	_, err = RunSweepContext(context.Background(), g, nil, SweepSpec{
		Attack: "random-failure", Fracs: []float64{0.1}, Trials: 2, Metrics: []string{"test-bad-masked"},
	}, 1)
	if !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("misregistered masked metric gave %v, want ErrBadParam", err)
	}
}
