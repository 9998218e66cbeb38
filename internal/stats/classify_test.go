package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestFitExponentialAutoRecovers(t *testing.T) {
	deg := sampleGeometric(11, 10000, 1, 0.4)
	fit := FitExponentialAuto(deg, 0)
	if fit.NTail < 10 {
		t.Fatalf("auto fit tail too small: %d", fit.NTail)
	}
	if math.Abs(fit.Lambda-0.4) > 0.08 {
		t.Fatalf("auto lambda = %v, want ~0.4", fit.Lambda)
	}
	if fit.KS > 0.05 {
		t.Fatalf("auto KS = %v, too large for a true geometric", fit.KS)
	}
}

func TestFitExponentialAutoEmpty(t *testing.T) {
	fit := FitExponentialAuto(nil, 0)
	if fit.NTail != 0 {
		t.Fatalf("empty input fit = %+v", fit)
	}
}

func TestFitExponentialAutoDegenerate(t *testing.T) {
	deg := make([]int, 50)
	for i := range deg {
		deg[i] = 3
	}
	fit := FitExponentialAuto(deg, 0)
	// Every scanned xmin is degenerate (single support point), so the
	// fallback xmin=1 fit is returned; it must still be well-formed.
	if fit.XMin != 1 || fit.NTail != 50 {
		t.Fatalf("degenerate fallback fit = %+v, want xmin=1 over all samples", fit)
	}
	if math.IsNaN(fit.Lambda) {
		t.Fatal("fallback lambda is NaN")
	}
}

// hasTwoDistinctAtLeast reports, from a tail fitter's suffix count of
// distinct values, whether the sample's values >= xmin hold at least two
// distinct values — a tail a distribution fit can actually be tested on.
func hasTwoDistinctAtLeast(degrees []int, xmin int) bool {
	f := newTailFitter(degrees)
	return xmin < len(f.distinct) && f.distinct[xmin] >= 2
}

func TestHasTwoDistinctAtLeast(t *testing.T) {
	if hasTwoDistinctAtLeast([]int{5, 5, 5}, 1) {
		t.Fatal("all-equal should be false")
	}
	if !hasTwoDistinctAtLeast([]int{5, 6}, 1) {
		t.Fatal("two values should be true")
	}
	if hasTwoDistinctAtLeast([]int{1, 2, 9}, 9) {
		t.Fatal("single value above xmin should be false")
	}
	if hasTwoDistinctAtLeast(nil, 1) {
		t.Fatal("empty should be false")
	}
}

func TestClassifyTailMixtureRobustness(t *testing.T) {
	// A geometric bulk plus a handful of outliers must not flip the
	// verdict to power law: this is the exact failure mode the symmetric
	// KS rule was introduced for.
	deg := sampleGeometric(12, 5000, 1, 0.6)
	deg = append(deg, 40, 45, 50) // 3 freak hubs out of 5000
	c := ClassifyTail(deg)
	if c.Kind != TailExponential {
		t.Fatalf("geometric + 3 outliers classified %v", c.Kind)
	}
}

func TestClassifyTailSupportFloorTwo(t *testing.T) {
	// Power law with support starting at 2 (BA-like): the full-support
	// comparison would fail here; the symmetric rule must not.
	deg := samplePowerLaw(13, 5000, 2, 2.6)
	c := ClassifyTail(deg)
	if c.Kind != TailPowerLaw {
		t.Fatalf("floor-2 power law classified %v", c.Kind)
	}
}

func TestClassifyTailReportsBothFits(t *testing.T) {
	deg := sampleGeometric(14, 2000, 1, 0.5)
	c := ClassifyTail(deg)
	if c.Exponential.NTail == 0 || c.PowerLaw.NTail == 0 {
		t.Fatal("classification must report both fits")
	}
	if c.LogLikRatio == 0 {
		t.Fatal("log-likelihood ratio should be reported")
	}
}

func TestClassifyTailDeterministic(t *testing.T) {
	r := rng.New(15)
	deg := make([]int, 500)
	for i := range deg {
		deg[i] = 1 + r.Intn(20)
	}
	a := ClassifyTail(deg)
	b := ClassifyTail(deg)
	if a.Kind != b.Kind || a.LogLikRatio != b.LogLikRatio {
		t.Fatal("classification not deterministic")
	}
}

// TestZetaBoundsBracketSum holds zetaBounds to the sum it bounds, summed
// smallest term first: the trapezoid bound must not exceed it nor the
// midpoint bound fall below it, and both must be close, across short and
// long ranges, exponents just above 1 and steep ones.
func TestZetaBoundsBracketSum(t *testing.T) {
	for _, a := range []int{2, 3, 9, 40, 700} {
		for _, span := range []int{1, 2, 10, 300, 10000} {
			m := a + span
			for _, alpha := range []float64{1 + 1e-12, 1 + 1e-6, 1.05, 1.8, 2.5, 4, 12} {
				sum := 0.0
				for k := m; k >= a; k-- {
					sum += math.Pow(float64(k), -alpha)
				}
				lo, hi := zetaBounds(float64(a), float64(m), alpha)
				if lo > sum*(1+1e-12) || hi < sum*(1-1e-12) {
					t.Fatalf("a %d m %d alpha %v: bounds [%v, %v] miss the sum %v", a, m, alpha, lo, hi, sum)
				}
				// The rules' errors are about f''(a)/12 and f''(a)/24,
				// with f'' = alpha(alpha+1)a^(-alpha-2).
				if width := (hi - lo) / sum; width > alpha*(alpha+1)/float64(a*a) {
					t.Fatalf("a %d m %d alpha %v: bounds [%v, %v] are %v wide", a, m, alpha, lo, hi, width)
				}
			}
		}
	}
}
