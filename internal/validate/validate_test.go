package validate

import (
	"context"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/stats"
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
		"mean-degree":     got.MeanDegree,
		"degree-cv":       got.DegreeCV,
		"top-degree-frac": got.TopDegreeFrac,
		"clustering":      got.Clustering,
		"assortativity":   got.Assortativity,
		"resilience":      got.Resilience,
		"distortion":      got.Distortion,
		"hierarchy-depth": got.HierDepth,
		"spectral-gap":    got.SpectralGap,
	}
	set := metrics.ProfileSet()
	for _, name := range []string{"mean-degree", "degree-cv", "top-degree-frac", "clustering", "assortativity"} {
		set = append(set, metricreg.Selection{Name: name})
	}
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

// legacySummary and legacySummarize are the deleted stats.Summary and
// stats.Summarize, kept verbatim as the oracle for MeasureContext's
// degree entries, which the registry's degree metrics now compute.
type legacySummary struct {
	N              int
	Mean, Variance float64
	Min, Max       float64
	Median         float64
}

func legacySummarize(xs []float64) legacySummary {
	s := legacySummary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	ss := 0.0
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Variance = ss / float64(s.N-1)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if s.N%2 == 1 {
		s.Median = sorted[s.N/2]
	} else {
		s.Median = (sorted[s.N/2-1] + sorted[s.N/2]) / 2
	}
	return s
}

// TestSummarize, TestSummarizeEvenMedian and TestSummarizeEmpty moved
// here from internal/stats with the oracle: they check its moments,
// median and empty case on hand-computed samples.
func TestSummarize(t *testing.T) {
	s := legacySummarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Variance-2.5) > 1e-12 {
		t.Fatalf("variance = %v, want 2.5", s.Variance)
	}
}

func TestSummarizeEvenMedian(t *testing.T) {
	s := legacySummarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 {
		t.Fatalf("median = %v, want 2.5", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := legacySummarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary should be zero: %+v", s)
	}
}

// TestDegreeEntriesMatchSummarize pins MeasureContext's three degree
// entries, bit for bit, to the computation they replaced: the
// coefficient of variation from Summarize over a float copy of the
// degrees, the mean and the top-degree fraction from AnalyzeDegrees.
func TestDegreeEntriesMatchSummarize(t *testing.T) {
	models := []struct {
		name   string
		params scenario.Params
	}{
		{"ba", scenario.Params{"n": 200, "m": 2}},
		{"fkp", scenario.Params{"n": 200}},
		{"hot", scenario.Params{"n": 200, "links": 2}},
		{"waxman", scenario.Params{"n": 200}},
		{"glp", scenario.Params{"n": 200}},
		{"isp", scenario.Params{"cities": 10, "pops": 4, "customers": 150}},
		{"mmp", scenario.Params{"n": 200}},
	}
	for _, m := range models {
		for seed := int64(1); seed <= 3; seed++ {
			p := scenario.Params{"seed": float64(seed)}
			for k, v := range m.params {
				p[k] = v
			}
			g, err := scenario.Default().GenerateByName(context.Background(), m.name, p)
			if err != nil {
				t.Fatalf("%s seed %d: %v", m.name, seed, err)
			}
			deg := g.Degrees()
			fdeg := make([]float64, len(deg))
			for i, d := range deg {
				fdeg[i] = float64(d)
			}
			sum := legacySummarize(fdeg)
			cv := 0.0
			if sum.Mean > 0 {
				cv = math.Sqrt(sum.Variance) / sum.Mean
			}
			ds := stats.AnalyzeDegrees(g)
			v := measure(t, g, seed)
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"meanDegree", v.MeanDegree, ds.MeanDegree},
				{"degreeCV", v.DegreeCV, cv},
				{"topDegreeFrac", v.TopDegreeFrac, ds.TopDegreeFrac},
			} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Errorf("%s seed %d: %s = %v, Summarize/AnalyzeDegrees %v", m.name, seed, c.name, c.got, c.want)
				}
			}
		}
	}
}
