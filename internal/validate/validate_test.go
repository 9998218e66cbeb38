package validate

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/metrics"
)

func ba(t *testing.T, n, m int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbertContext(context.Background(), n, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func measure(t *testing.T, g *graph.Graph, seed int64) MetricVector {
	t.Helper()
	v, err := MeasureContext(context.Background(), g, seed)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func compare(t *testing.T, ref, cand *graph.Graph, seed int64) Comparison {
	t.Helper()
	c, err := CompareContext(context.Background(), ref, cand, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMeasureSane(t *testing.T) {
	g := ba(t, 300, 2, 1)
	v := measure(t, g, 1)
	if v.MeanDegree <= 0 || v.MeanDegree > 10 {
		t.Fatalf("mean degree %v implausible", v.MeanDegree)
	}
	if v.DegreeCV <= 0 {
		t.Fatal("degree CV should be positive for BA")
	}
	if len(v.Values()) != len(v.Names()) {
		t.Fatal("Values/Names length mismatch")
	}
}

func TestCompareSelfIsNearZero(t *testing.T) {
	g := ba(t, 300, 2, 2)
	c := compare(t, g, g, 7)
	if c.Distance > 1e-9 {
		t.Fatalf("self-comparison distance = %v, want ~0", c.Distance)
	}
	if c.DegreeKS != 0 {
		t.Fatalf("self-comparison degree KS = %v, want 0", c.DegreeKS)
	}
}

func TestCompareDetectsStructureDifference(t *testing.T) {
	// Same degree-ish density, different structure: BA vs ER.
	baG := ba(t, 400, 2, 3)
	erG, err := gen.ErdosRenyiGNMContext(context.Background(), 400, baG.NumEdges(), 3)
	if err != nil {
		t.Fatal(err)
	}
	c := compare(t, baG, erG, 7)
	if c.Distance < 0.1 {
		t.Fatalf("BA vs ER distance = %v, expected substantial", c.Distance)
	}
	if c.DegreeKS <= 0 {
		t.Fatal("BA vs ER should differ in degrees too")
	}
}

func TestCompareTwoBASeedsCloserThanBAvsER(t *testing.T) {
	// The paper's validation logic: two instances of the same mechanism
	// should be closer than instances of different mechanisms.
	a := ba(t, 400, 2, 4)
	b := ba(t, 400, 2, 5)
	er, err := gen.ErdosRenyiGNMContext(context.Background(), 400, a.NumEdges(), 4)
	if err != nil {
		t.Fatal(err)
	}
	same := compare(t, a, b, 9).Distance
	diff := compare(t, a, er, 9).Distance
	if same >= diff {
		t.Fatalf("same-mechanism distance %v not below cross-mechanism %v", same, diff)
	}
}

func TestComparisonFormat(t *testing.T) {
	g := ba(t, 100, 2, 6)
	out := compare(t, g, g, 1).Format()
	for _, want := range []string{"metric", "distance", "degreeKS", "clustering"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestDegreeKSBounds(t *testing.T) {
	if ks := DegreeKS(nil, []int{1}); ks != 1 {
		t.Fatalf("empty-vs-nonempty KS = %v, want 1", ks)
	}
	if ks := DegreeKS([]int{1, 2, 3}, []int{1, 2, 3}); ks != 0 {
		t.Fatalf("identical KS = %v, want 0", ks)
	}
	ks := DegreeKS([]int{1, 1, 1}, []int{10, 10, 10})
	if math.Abs(ks-1) > 1e-12 {
		t.Fatalf("disjoint KS = %v, want 1", ks)
	}
}

func TestBootstrapMetricInterval(t *testing.T) {
	g := ba(t, 200, 2, 7)
	iv := ResilienceCI(g, 20, 11)
	if iv.Low > iv.Mean || iv.Mean > iv.High {
		t.Fatalf("interval ordering broken: %+v", iv)
	}
	if iv.Low < 0 || iv.High > 1 {
		t.Fatalf("resilience CI out of [0,1]: %+v", iv)
	}
}

func TestBootstrapDegenerateParams(t *testing.T) {
	g := ba(t, 100, 1, 8)
	iv := BootstrapMetric(g, func(_ *graph.Graph, _ int64) float64 { return 0.5 }, 1, 2.0, 1)
	if iv.Mean != 0.5 || iv.Low != 0.5 || iv.High != 0.5 {
		t.Fatalf("constant metric CI = %+v", iv)
	}
}

func TestMeasureContextRejectsEmptyTopology(t *testing.T) {
	if _, err := MeasureContext(context.Background(), nil, 1); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("nil graph gave %v, want ErrBadParam", err)
	}
	if _, err := MeasureContext(context.Background(), graph.New(0), 1); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("empty graph gave %v, want ErrBadParam", err)
	}
}

func TestMeasureContextCancellation(t *testing.T) {
	g := ba(t, 200, 2, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MeasureContext(ctx, g, 1); !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("canceled measure gave %v, want ErrCanceled", err)
	}
}

func TestCompareContextErrorPaths(t *testing.T) {
	g := ba(t, 100, 2, 10)
	if _, err := CompareContext(context.Background(), nil, g, 1); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("nil reference gave %v, want ErrBadParam", err)
	}
	if _, err := CompareContext(context.Background(), g, graph.New(0), 1); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("empty candidate gave %v, want ErrBadParam", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompareContext(ctx, g, g, 1); !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("canceled compare gave %v, want ErrCanceled", err)
	}
	c, err := CompareContext(context.Background(), g, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Distance > 1e-9 {
		t.Fatalf("self-comparison distance = %v", c.Distance)
	}
}

// TestMeasureContextMatchesSingleMetrics pins the fused evaluation
// behind MeasureContext to each registry metric evaluated alone on its
// own snapshot.
func TestMeasureContextMatchesSingleMetrics(t *testing.T) {
	g := ba(t, 150, 2, 12)
	got := measure(t, g, 5)
	alone := func(sel metricreg.Selection) metricreg.Value {
		t.Helper()
		vals, err := metricreg.Evaluate(context.Background(), metricreg.NewSource(g, nil),
			[]metricreg.Selection{sel}, metricreg.Options{Seed: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return vals[sel.Name]
	}
	field := map[string]float64{
		"clustering":      got.Clustering,
		"assortativity":   got.Assortativity,
		"resilience":      got.Resilience,
		"distortion":      got.Distortion,
		"hierarchy-depth": got.HierDepth,
		"spectral-gap":    got.SpectralGap,
	}
	set := append(metrics.ProfileSet(), metricreg.Selection{Name: "clustering"}, metricreg.Selection{Name: "assortativity"})
	for _, sel := range set {
		v := alone(sel)
		if sel.Name == "expansion" {
			if v.Series[3] != got.ExpansionAt3 {
				t.Fatalf("expansion@3 = %v, alone %v", got.ExpansionAt3, v.Series[3])
			}
			continue
		}
		if v.Scalar != field[sel.Name] {
			t.Fatalf("%s = %v, alone %v", sel.Name, field[sel.Name], v.Scalar)
		}
	}
}
