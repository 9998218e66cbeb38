package stats_test

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// The per-xmin tail scan the one-pass walk replaced, kept as the oracle:
// every xmin re-filters the whole sample, allocates fresh count and CDF
// arrays, and evaluates every KS distance in full.

func oracleTail(degrees []int, xmin int) []int {
	var tail []int
	for _, d := range degrees {
		if d >= xmin {
			tail = append(tail, d)
		}
	}
	return tail
}

func oracleFitPowerLaw(degrees []int, xmin int) stats.PowerLawFit {
	if xmin < 1 {
		xmin = 1
	}
	tail := oracleTail(degrees, xmin)
	if len(tail) < 2 {
		return stats.PowerLawFit{XMin: xmin, NTail: len(tail)}
	}
	s := 0.0
	for _, d := range tail {
		s += math.Log(float64(d) / (float64(xmin) - 0.5))
	}
	alpha := 1 + float64(len(tail))/s
	return stats.PowerLawFit{Alpha: alpha, XMin: xmin, NTail: len(tail), KS: oracleKSPowerLaw(tail, xmin, alpha)}
}

func oracleKSPowerLaw(tail []int, xmin int, alpha float64) float64 {
	maxDeg := 0
	for _, d := range tail {
		maxDeg = max(maxDeg, d)
	}
	weights := make([]float64, maxDeg-xmin+1)
	total := 0.0
	for k := xmin; k <= maxDeg; k++ {
		w := math.Pow(float64(k), -alpha)
		weights[k-xmin] = w
		total += w
	}
	modelCDF := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		modelCDF[i] = acc
	}
	counts := make([]int, maxDeg-xmin+1)
	for _, d := range tail {
		counts[d-xmin]++
	}
	n := float64(len(tail))
	ks, accEmp := 0.0, 0.0
	for i := range counts {
		accEmp += float64(counts[i]) / n
		if d := math.Abs(accEmp - modelCDF[i]); d > ks {
			ks = d
		}
	}
	return ks
}

func oracleFitExponential(degrees []int, xmin int) stats.ExponentialFit {
	if xmin < 1 {
		xmin = 1
	}
	tail := oracleTail(degrees, xmin)
	if len(tail) < 2 {
		return stats.ExponentialFit{XMin: xmin, NTail: len(tail)}
	}
	mean := 0.0
	for _, d := range tail {
		mean += float64(d)
	}
	mean /= float64(len(tail))
	excess := mean - float64(xmin)
	if excess <= 0 {
		return stats.ExponentialFit{Lambda: math.Inf(1), XMin: xmin, NTail: len(tail)}
	}
	lambda := math.Log(1 + 1/excess)
	return stats.ExponentialFit{Lambda: lambda, XMin: xmin, NTail: len(tail), KS: oracleKSGeometric(tail, xmin, lambda)}
}

func oracleKSGeometric(tail []int, xmin int, lambda float64) float64 {
	maxDeg := 0
	for _, d := range tail {
		maxDeg = max(maxDeg, d)
	}
	q := math.Exp(-lambda)
	counts := make([]int, maxDeg-xmin+1)
	for _, d := range tail {
		counts[d-xmin]++
	}
	n := float64(len(tail))
	ks, accEmp := 0.0, 0.0
	for i := range counts {
		accEmp += float64(counts[i]) / n
		model := 1 - math.Pow(q, float64(i+1))
		if d := math.Abs(accEmp - model); d > ks {
			ks = d
		}
	}
	return ks
}

func oracleTwoDistinct(degrees []int, xmin int) bool {
	first := -1
	for _, d := range degrees {
		if d < xmin {
			continue
		}
		if first == -1 {
			first = d
		} else if d != first {
			return true
		}
	}
	return false
}

func oracleMaxXMin(degrees []int, maxXMin int) int {
	maxDeg := 0
	for _, d := range degrees {
		maxDeg = max(maxDeg, d)
	}
	if maxXMin <= 0 || maxXMin > maxDeg {
		maxXMin = maxDeg
	}
	return maxXMin
}

func oracleFitPowerLawAuto(degrees []int, maxXMin int) stats.PowerLawFit {
	if len(degrees) == 0 {
		return stats.PowerLawFit{}
	}
	best := stats.PowerLawFit{KS: math.Inf(1)}
	for xmin := 1; xmin <= oracleMaxXMin(degrees, maxXMin); xmin++ {
		f := oracleFitPowerLaw(degrees, xmin)
		if f.NTail < 10 {
			break
		}
		if !oracleTwoDistinct(degrees, xmin) {
			continue
		}
		if f.KS < best.KS {
			best = f
		}
	}
	if math.IsInf(best.KS, 1) {
		return oracleFitPowerLaw(degrees, 1)
	}
	return best
}

func oracleFitExponentialAuto(degrees []int, maxXMin int) stats.ExponentialFit {
	if len(degrees) == 0 {
		return stats.ExponentialFit{}
	}
	best := stats.ExponentialFit{KS: math.Inf(1)}
	for xmin := 1; xmin <= oracleMaxXMin(degrees, maxXMin); xmin++ {
		f := oracleFitExponential(degrees, xmin)
		if f.NTail < 10 {
			break
		}
		if math.IsInf(f.Lambda, 1) || !oracleTwoDistinct(degrees, xmin) {
			continue
		}
		if f.KS < best.KS {
			best = f
		}
	}
	if math.IsInf(best.KS, 1) {
		return oracleFitExponential(degrees, 1)
	}
	return best
}

func oracleClassifyTail(degrees []int) stats.TailClassification {
	pl := oracleFitPowerLawAuto(degrees, 0)
	exp := oracleFitExponentialAuto(degrees, 0)
	out := stats.TailClassification{PowerLaw: pl, Exponential: exp}
	if pl.NTail < 10 || exp.NTail < 10 {
		return out
	}
	minDeg, maxDeg := degrees[0], degrees[0]
	for _, d := range degrees {
		minDeg, maxDeg = min(minDeg, d), max(maxDeg, d)
	}
	minDeg = max(minDeg, 1)
	plFloor := oracleFitPowerLaw(degrees, minDeg)
	expFloor := oracleFitExponential(degrees, minDeg)
	if plFloor.NTail >= 10 && !math.IsInf(expFloor.Lambda, 1) && plFloor.Alpha > 1 {
		zPL, zExp := 0.0, 0.0
		for k := minDeg; k <= maxDeg; k++ {
			zPL += math.Pow(float64(k), -plFloor.Alpha)
			zExp += math.Exp(-expFloor.Lambda * float64(k-minDeg))
		}
		for _, d := range degrees {
			if d < minDeg {
				continue
			}
			lpPL := -plFloor.Alpha*math.Log(float64(d)) - math.Log(zPL)
			lpExp := -expFloor.Lambda*float64(d-minDeg) - math.Log(zExp)
			out.LogLikRatio += lpPL - lpExp
		}
	}
	switch {
	case math.IsInf(exp.Lambda, 1):
		out.Kind = stats.TailExponential
	case pl.KS < exp.KS:
		out.Kind = stats.TailPowerLaw
	default:
		out.Kind = stats.TailExponential
	}
	return out
}

// bits renders a float by its bit pattern, so -0, NaN payloads and
// one-ulp differences all show.
func bits(x float64) string { return fmt.Sprintf("%#016x", math.Float64bits(x)) }

func plString(f stats.PowerLawFit) string {
	return fmt.Sprintf("{alpha %s ks %s xmin %d n %d}", bits(f.Alpha), bits(f.KS), f.XMin, f.NTail)
}

func expString(f stats.ExponentialFit) string {
	return fmt.Sprintf("{lambda %s ks %s xmin %d n %d}", bits(f.Lambda), bits(f.KS), f.XMin, f.NTail)
}

func classString(c stats.TailClassification) string {
	return fmt.Sprintf("%v pl %s exp %s llr %s", c.Kind, plString(c.PowerLaw), expString(c.Exponential), bits(c.LogLikRatio))
}

type tailSample struct {
	name string
	deg  []int
}

// tailSamples returns degree samples of generated topologies of every
// kind the classifier sees, plus hand-built edge cases.
func tailSamples(t testing.TB) []tailSample {
	t.Helper()
	models := []struct {
		name string
		p    scenario.Params
	}{
		{"ba", scenario.Params{"n": 3000, "m": 1}},
		{"ba", scenario.Params{"n": 3000, "m": 2}},
		{"ba", scenario.Params{"n": 2000, "m": 3}},
		{"er-gnp", scenario.Params{"n": 2000}},
		{"er-gnm", scenario.Params{"n": 1500}},
		{"hot", scenario.Params{"n": 3000, "links": 2}},
		{"hot", scenario.Params{"n": 2000, "ports": 8}},
		{"hot", scenario.Params{"n": 3000, "alpha": 8, "links": 1}},
		{"fkp", scenario.Params{"n": 3000, "alpha": 4}},
		{"fkp", scenario.Params{"n": 3000, "alpha": 20}},
		{"fkp", scenario.Params{"n": 2000, "alpha": 0.5}},
		{"fkp", scenario.Params{"n": 2000, "alpha": 200}},
		{"isp", scenario.Params{"cities": 30, "customers": 2000, "pops": 10}},
		{"isp", scenario.Params{"cities": 30, "customers": 2000, "pops": 10, "price": 0.02}},
		{"isp", scenario.Params{"cities": 30, "customers": 2000, "pops": 10, "ports": 4}},
		{"mmp", scenario.Params{"n": 1500}},
		{"internet", scenario.Params{"isps": 6, "customers": 200}},
		{"ring", scenario.Params{"n": 300}},
		{"glp", scenario.Params{"n": 2000}},
		{"waxman", scenario.Params{"n": 1000}},
		{"rgg", scenario.Params{"n": 1000}},
		{"inet", scenario.Params{"n": 2000}},
		{"transitstub", scenario.Params{}},
	}
	var out []tailSample
	for _, m := range models {
		for _, seed := range []float64{1, 2} {
			p := scenario.Params{"seed": seed}
			for k, v := range m.p {
				p[k] = v
			}
			g, err := scenario.Default().GenerateByName(context.Background(), m.name, p)
			if err != nil {
				t.Fatalf("%s %v: %v", m.name, p, err)
			}
			out = append(out, tailSample{fmt.Sprintf("%s%v", m.name, p), g.Degrees()})
		}
	}
	star := make([]int, 400)
	for i := range star {
		star[i] = 1
	}
	star[0] = len(star) - 1
	constant := func(v, n int) []int {
		d := make([]int, n)
		for i := range d {
			d[i] = v
		}
		return d
	}
	ramp := make([]int, 60)
	for i := range ramp {
		ramp[i] = 1 + i%13
	}
	// A power-law histogram whose fit at xmin 3 beats the one at xmin 2
	// by 4e-6 in KS distance, inside the width of the Euler-Maclaurin
	// bound at xmin 3: the walk capped at xmin 3 keeps xmin 3 only if
	// that bound is sound.
	var knifeEdge []int
	for k, c := range []int{0, 0, 30728, 16679, 6250, 3578, 2268, 1543, 1105, 823, 632,
		498, 401, 328, 273, 230, 195, 168, 145, 127, 112, 99, 88, 79, 71, 64, 58,
		53, 48, 44, 41, 37, 35, 32, 30, 28, 26, 24, 22, 21, 20} {
		knifeEdge = append(knifeEdge, constant(k, c)...)
	}
	return append(out,
		tailSample{"star", star},
		tailSample{"constant-3", constant(3, 50)},
		tailSample{"constant-1", constant(1, 12)},
		tailSample{"constant-0", constant(0, 20)},
		tailSample{"two-values", append(constant(2, 30), constant(7, 5)...)},
		tailSample{"ramp-with-isolated", append(ramp, 0, 0, 0)},
		tailSample{"empty", nil},
		tailSample{"one", []int{5}},
		tailSample{"three", []int{1, 2, 3}},
		tailSample{"nine-equal", constant(2, 9)},
		tailSample{"nine-distinct", []int{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		tailSample{"ten-with-zero", []int{0, 1, 1, 2, 2, 3, 4, 5, 8, 13}},
		tailSample{"knife-edge", knifeEdge},
	)
}

// randomTailSamples returns seeded random degree samples of the shapes
// the walk's KS pre-checks must get right: geometric tails, Zipf samples
// with one hub near 10^4 (a long, sparse support), samples on a few
// scattered values, two-valued samples, and samples of fewer than ten.
func randomTailSamples() []tailSample {
	r := rand.New(rand.NewPCG(1, 2))
	var out []tailSample
	add := func(kind string, deg []int) {
		out = append(out, tailSample{fmt.Sprintf("%s-%d", kind, len(out)), deg})
	}
	for range 30 {
		deg := make([]int, 10+r.IntN(2000))
		lo, p := r.IntN(4), 0.05+0.9*r.Float64()
		for i := range deg {
			deg[i] = lo
			for r.Float64() > p {
				deg[i]++
			}
		}
		add("geometric", deg)
	}
	for range 4 {
		deg := make([]int, 100+r.IntN(300))
		z := rand.NewZipf(r, 1.5+r.Float64(), 1, 300)
		for i := range deg {
			deg[i] = 1 + int(z.Uint64())
		}
		deg[r.IntN(len(deg))] = 9000 + r.IntN(2000)
		add("zipf-hub", deg)
	}
	for range 20 {
		support := make([]int, 2+r.IntN(7))
		for i := range support {
			support[i] = r.IntN(120)
		}
		deg := make([]int, 10+r.IntN(1000))
		for i := range deg {
			// Skewed towards the first values, so the counts differ.
			deg[i] = support[min(r.IntN(len(support)), r.IntN(len(support)))]
		}
		add("gapped", deg)
	}
	for range 20 {
		a, b := r.IntN(50), r.IntN(50)
		deg := make([]int, 10+r.IntN(500))
		frac := r.Float64()
		for i := range deg {
			if deg[i] = a; r.Float64() < frac {
				deg[i] = b
			}
		}
		add("two-valued", deg)
	}
	for range 30 {
		deg := make([]int, r.IntN(10))
		for i := range deg {
			deg[i] = r.IntN(20)
		}
		add("small", deg)
	}
	return out
}

// TestTailFitsMatchPerXMinScan pins every field of the one-pass walk's
// fits, bit for bit, to the per-xmin scan it replaced: ClassifyTail, both
// auto fits with and without an xmin cap, and both fixed-xmin fits
// across the support, on generated topologies, edge cases and seeded
// random samples.
func TestTailFitsMatchPerXMinScan(t *testing.T) {
	samples := append(tailSamples(t), randomTailSamples()...)
	if len(samples) < 30 {
		t.Fatalf("only %d samples", len(samples))
	}
	for _, s := range samples {
		if got, want := classString(stats.ClassifyTail(s.deg)), classString(oracleClassifyTail(s.deg)); got != want {
			t.Fatalf("%s: ClassifyTail\n got %s\nwant %s", s.name, got, want)
		}
		for _, cap := range []int{0, 3} {
			if got, want := plString(stats.FitPowerLawAuto(s.deg, cap)), plString(oracleFitPowerLawAuto(s.deg, cap)); got != want {
				t.Fatalf("%s: FitPowerLawAuto(%d) = %s, want %s", s.name, cap, got, want)
			}
			if got, want := expString(stats.FitExponentialAuto(s.deg, cap)), expString(oracleFitExponentialAuto(s.deg, cap)); got != want {
				t.Fatalf("%s: FitExponentialAuto(%d) = %s, want %s", s.name, cap, got, want)
			}
		}
		maxDeg := 0
		for _, d := range s.deg {
			maxDeg = max(maxDeg, d)
		}
		for _, xmin := range []int{0, 1, 2, 3, maxDeg / 2, maxDeg, maxDeg + 1} {
			if got, want := plString(stats.FitPowerLaw(s.deg, xmin)), plString(oracleFitPowerLaw(s.deg, xmin)); got != want {
				t.Fatalf("%s: FitPowerLaw(%d) = %s, want %s", s.name, xmin, got, want)
			}
			if got, want := expString(stats.FitExponential(s.deg, xmin)), expString(oracleFitExponential(s.deg, xmin)); got != want {
				t.Fatalf("%s: FitExponential(%d) = %s, want %s", s.name, xmin, got, want)
			}
		}
	}
}

// BenchmarkClassifyTailHOT16k classifies the degree sample of the
// 16k-node, two-link HOT topology the design benchmark grows and reports
// the model-CDF terms its KS distances evaluate, an exact work count.
func BenchmarkClassifyTailHOT16k(b *testing.B) {
	g, err := scenario.Default().GenerateByName(context.Background(), "hot",
		scenario.Params{"n": 16000, "alpha": 8, "links": 2, "seed": 1})
	if err != nil {
		b.Fatal(err)
	}
	deg := g.Degrees()
	b.ReportAllocs()
	b.ResetTimer()
	terms := 0
	for i := 0; i < b.N; i++ {
		_, terms = stats.ClassifyTailTerms(deg)
	}
	b.ReportMetric(float64(terms), "ks-terms/op")
}
