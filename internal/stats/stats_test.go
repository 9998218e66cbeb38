package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestDegreeHistogram(t *testing.T) {
	h := DegreeHistogram([]int{1, 1, 2, 3, 3, 3})
	want := []int{0, 2, 1, 3}
	if len(h) != len(want) {
		t.Fatalf("histogram = %v, want %v", h, want)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", h, want)
		}
	}
}

func TestDegreeCCDFMonotone(t *testing.T) {
	err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		deg := make([]int, len(raw))
		for i, v := range raw {
			deg[i] = int(v) % 50
		}
		ccdf := DegreeCCDF(deg)
		if len(ccdf) == 0 {
			return false
		}
		prevFrac := 1.1
		prevVal := -1
		for _, p := range ccdf {
			if p.Frac > prevFrac || p.Value <= prevVal {
				return false
			}
			if p.Frac <= 0 || p.Frac > 1 {
				return false
			}
			prevFrac = p.Frac
			prevVal = p.Value
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDegreeCCDFStartsAtOne(t *testing.T) {
	ccdf := DegreeCCDF([]int{2, 3, 3, 7})
	if ccdf[0].Value != 2 || ccdf[0].Frac != 1 {
		t.Fatalf("first CCDF point = %+v, want {2 1}", ccdf[0])
	}
	last := ccdf[len(ccdf)-1]
	if last.Value != 7 || math.Abs(last.Frac-0.25) > 1e-12 {
		t.Fatalf("last CCDF point = %+v, want {7 0.25}", last)
	}
}

func TestDegreeCCDFEmpty(t *testing.T) {
	if DegreeCCDF(nil) != nil {
		t.Fatal("empty input should give nil CCDF")
	}
}

// samplePowerLaw draws n samples from a discrete power law with the given
// alpha on support [xmin, 10000] by inverse transform on the truncated
// zeta weights.
func samplePowerLaw(seed int64, n, xmin int, alpha float64) []int {
	const maxK = 10000
	weights := make([]float64, maxK-xmin+1)
	total := 0.0
	for k := xmin; k <= maxK; k++ {
		w := math.Pow(float64(k), -alpha)
		weights[k-xmin] = w
		total += w
	}
	cdf := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cdf[i] = acc
	}
	r := rng.New(seed)
	out := make([]int, n)
	for i := range out {
		u := r.Float64()
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = xmin + lo
	}
	return out
}

// sampleGeometric draws n samples from a shifted geometric distribution on
// {xmin, xmin+1, ...} with decay exp(-lambda).
func sampleGeometric(seed int64, n, xmin int, lambda float64) []int {
	r := rng.New(seed)
	q := math.Exp(-lambda)
	out := make([]int, n)
	for i := range out {
		// Inverse transform for geometric: k = floor(ln(U)/ln(q)).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		out[i] = xmin + int(math.Log(u)/math.Log(q))
	}
	return out
}

func TestFitPowerLawRecoversAlpha(t *testing.T) {
	deg := samplePowerLaw(1, 20000, 2, 2.5)
	// The MLE uses the standard continuous approximation, which together
	// with the truncated sampler biases alpha slightly low; 0.2 tolerance.
	fit := PowerLawAt(deg, 2)
	if math.Abs(fit.Alpha-2.5) > 0.2 {
		t.Fatalf("recovered alpha = %v, want ~2.5", fit.Alpha)
	}
	if fit.NTail != 20000 {
		t.Fatalf("NTail = %d", fit.NTail)
	}
}

func TestFitExponentialRecoversLambda(t *testing.T) {
	deg := sampleGeometric(2, 20000, 1, 0.7)
	fit := FitExponential(deg, 1)
	if math.Abs(fit.Lambda-0.7) > 0.05 {
		t.Fatalf("recovered lambda = %v, want ~0.7", fit.Lambda)
	}
}

func TestClassifyTailPowerLaw(t *testing.T) {
	deg := samplePowerLaw(3, 5000, 1, 2.2)
	c := ClassifyTail(deg)
	if c.Kind != TailPowerLaw {
		t.Fatalf("power-law sample classified as %v (llr=%v)", c.Kind, c.LogLikRatio)
	}
}

func TestClassifyTailExponential(t *testing.T) {
	deg := sampleGeometric(4, 5000, 1, 0.5)
	c := ClassifyTail(deg)
	if c.Kind != TailExponential {
		t.Fatalf("geometric sample classified as %v (llr=%v)", c.Kind, c.LogLikRatio)
	}
}

func TestClassifyTailSmallSampleUndetermined(t *testing.T) {
	c := ClassifyTail([]int{1, 2, 3})
	if c.Kind != TailUndetermined {
		t.Fatalf("tiny sample classified as %v", c.Kind)
	}
}

func TestClassifyTailDegenerate(t *testing.T) {
	deg := make([]int, 100)
	for i := range deg {
		deg[i] = 5
	}
	c := ClassifyTail(deg)
	// All-equal degrees: either undetermined or exponential is acceptable;
	// must not be power law.
	if c.Kind == TailPowerLaw {
		t.Fatal("constant degrees classified as power law")
	}
}

func TestFitPowerLawTinyTail(t *testing.T) {
	fit := PowerLawAt([]int{5}, 1)
	if fit.NTail != 1 || fit.Alpha != 0 {
		t.Fatalf("tiny tail fit = %+v", fit)
	}
}

func TestFitPowerLawAutoPrefersTrueXMin(t *testing.T) {
	// Power law starting at 4 with noise below.
	deg := samplePowerLaw(5, 8000, 4, 2.3)
	deg = append(deg, 1, 1, 1, 2, 2, 3, 3, 3, 2, 1, 2, 3, 1, 2, 3)
	fit, _ := TailWalk(deg, 0)
	if fit.XMin < 2 || fit.XMin > 8 {
		t.Fatalf("auto xmin = %d, want near 4", fit.XMin)
	}
	if math.Abs(fit.Alpha-2.3) > 0.25 {
		t.Fatalf("auto alpha = %v, want ~2.3", fit.Alpha)
	}
}

func TestTailKindString(t *testing.T) {
	if TailPowerLaw.String() != "power-law" || TailExponential.String() != "exponential" || TailUndetermined.String() != "undetermined" {
		t.Fatal("TailKind strings wrong")
	}
}

func TestKSDistanceBounds(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		deg := samplePowerLaw(seed, 200, 1, 2.0)
		fit := PowerLawAt(deg, 1)
		return fit.KS >= 0 && fit.KS <= 1
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}
