// Package stats provides the statistical machinery the experiments use to
// characterize topologies: degree distributions and their CCDFs, discrete
// power-law and exponential tail fits with a likelihood-based classifier,
// clustering coefficients, and assortativity.
//
// The tail classifier is the load-bearing piece: the paper's claims are of
// the form "the resulting node degree distributions can be either
// exponential or of the power-law type" (FKP, §3.1) and "yields tree
// topologies with exponential node degree distributions" (§4.2). We decide
// between the two by maximum likelihood on the degree tail, following the
// approach popularized by Clauset, Shalizi & Newman (discrete power law
// MLE + KS distance) with a log-likelihood comparison against a geometric
// (discrete exponential) alternative.
package stats

import (
	"math"
	"slices"
	"sort"
)

// Summary holds basic moments of a sample.
type Summary struct {
	N              int
	Mean, Variance float64
	Min, Max       float64
	Median         float64
}

// Summarize computes summary statistics of xs. Zero value for empty input.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
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

// DegreeHistogram counts occurrences of each degree value. Index k holds
// the number of nodes with degree k.
func DegreeHistogram(degrees []int) []int {
	max := 0
	for _, d := range degrees {
		if d > max {
			max = d
		}
	}
	h := make([]int, max+1)
	for _, d := range degrees {
		h[d]++
	}
	return h
}

// CCDFPoint is one point of a complementary CDF: the fraction of samples
// with value >= Value.
type CCDFPoint struct {
	Value int
	Frac  float64
}

// DegreeCCDF returns P(D >= k) for each distinct degree k present,
// ascending in k. The fractions are non-increasing and start at 1 when the
// minimum degree is included.
func DegreeCCDF(degrees []int) []CCDFPoint {
	if len(degrees) == 0 {
		return nil
	}
	h := DegreeHistogram(degrees)
	n := float64(len(degrees))
	var out []CCDFPoint
	remaining := float64(len(degrees))
	for k := 0; k < len(h); k++ {
		if h[k] > 0 {
			out = append(out, CCDFPoint{Value: k, Frac: remaining / n})
		}
		remaining -= float64(h[k])
	}
	return out
}

// TailKind classifies a degree tail.
type TailKind int

// Tail classifications reported by ClassifyTail.
const (
	TailUndetermined TailKind = iota
	TailPowerLaw
	TailExponential
)

// String names the tail kind.
func (k TailKind) String() string {
	switch k {
	case TailPowerLaw:
		return "power-law"
	case TailExponential:
		return "exponential"
	default:
		return "undetermined"
	}
}

// PowerLawFit is the result of a discrete power-law MLE on a degree tail.
type PowerLawFit struct {
	Alpha float64 // exponent of p(k) ~ k^-alpha for k >= XMin
	XMin  int     // tail start
	KS    float64 // Kolmogorov–Smirnov distance of tail fit
	NTail int     // number of samples in the tail
}

// FitPowerLaw fits a discrete power law to the tail of the degree sample
// for a fixed xmin, using the standard MLE approximation
// alpha = 1 + n / sum(ln(k / (xmin - 0.5))). Returns a zero fit when fewer
// than 2 tail samples exist.
func FitPowerLaw(degrees []int, xmin int) PowerLawFit {
	xmin = max(xmin, 1)
	f := newTailFitter(degrees)
	f.cut(xmin)
	return f.powerLaw(xmin, math.Inf(1))
}

// FitPowerLawAuto selects xmin in [1, maxXMin] minimizing the KS distance
// (Clauset-style) and returns the corresponding fit. maxXMin <= 0 uses a
// default that keeps at least 10 samples in the tail.
func FitPowerLawAuto(degrees []int, maxXMin int) PowerLawFit {
	pl, _ := newTailFitter(degrees).walk(degrees, maxXMin)
	return pl
}

// ExponentialFit is the result of a geometric (discrete exponential) MLE
// on a degree tail: P(k) ~ exp(-lambda * k) for k >= XMin.
type ExponentialFit struct {
	Lambda float64
	XMin   int
	KS     float64
	NTail  int
}

// FitExponential fits a geometric tail by MLE. For the shifted geometric
// with support {xmin, xmin+1, ...}, the MLE is
// lambda = ln(1 + 1/(mean(k) - xmin)).
func FitExponential(degrees []int, xmin int) ExponentialFit {
	xmin = max(xmin, 1)
	f := newTailFitter(degrees)
	f.cut(xmin)
	return f.exponential(xmin, math.Inf(1))
}

// FitExponentialAuto selects xmin in [1, maxXMin] minimizing the KS
// distance of the geometric tail fit (the same scan FitPowerLawAuto uses
// for the power law) and returns the corresponding fit.
func FitExponentialAuto(degrees []int, maxXMin int) ExponentialFit {
	_, exp := newTailFitter(degrees).walk(degrees, maxXMin)
	return exp
}

// tailFitter fits the tail of one degree sample at ascending xmin. It
// keeps a histogram of the sample with suffix counts of samples and of
// distinct values, and the samples >= the current xmin compacted in
// sample order, so each fit sums the same values in the same order a
// fresh filter of the sample would, and no xmin allocates. Samples below
// 1 belong to no tail.
//
// A fit whose KS distance reaches the best one so far is never kept, so
// the walk first checks each KS distance against that best by a bound:
// the power law's model CDF at its leading support points, with
// Euler-Maclaurin bounds on its normalizer (plReaches), and the
// geometric's at the empirical CDF's jumps (geoReaches). Only an xmin
// the bound leaves undecided pays for the distance over its whole
// support. On the 16k-node HOT sample, computing every distance of the
// walk's 603 xmins in full would take 491,690 model-CDF terms; with the
// bounds it takes 81,898, their own calls included, and every fit is
// the same to the bit.
type tailFitter struct {
	hist     []int     // hist[k]: samples equal to k, for 1 <= k <= maxDeg
	atLeast  []int     // atLeast[k]: samples >= k
	distinct []int     // distinct[k]: distinct values >= k
	tail     []int     // the samples >= the last cut, in sample order
	weights  []float64 // the power-law KS's unnormalized model masses
	terms    int       // model-CDF terms and bound calls the KS distances made
}

func newTailFitter(degrees []int) *tailFitter {
	maxDeg := 0
	for _, d := range degrees {
		maxDeg = max(maxDeg, d)
	}
	f := &tailFitter{
		hist:     make([]int, maxDeg+2),
		atLeast:  make([]int, maxDeg+2),
		distinct: make([]int, maxDeg+2),
		tail:     make([]int, 0, len(degrees)),
		weights:  make([]float64, maxDeg+1),
	}
	for _, d := range degrees {
		if d >= 1 {
			f.hist[d]++
			f.tail = append(f.tail, d)
		}
	}
	for k := maxDeg; k >= 1; k-- {
		f.atLeast[k] = f.atLeast[k+1] + f.hist[k]
		f.distinct[k] = f.distinct[k+1]
		if f.hist[k] > 0 {
			f.distinct[k]++
		}
	}
	return f
}

// maxDeg is the largest sample (0 when none is positive).
func (f *tailFitter) maxDeg() int { return len(f.hist) - 2 }

// cut drops the samples below xmin from the tail. Cuts must not
// decrease.
func (f *tailFitter) cut(xmin int) {
	n := 0
	if xmin < len(f.atLeast) {
		n = f.atLeast[xmin]
	}
	if len(f.tail) == n {
		return
	}
	kept := f.tail[:0]
	for _, d := range f.tail {
		if d >= xmin {
			kept = append(kept, d)
		}
	}
	f.tail = kept
}

// powerLaw fits the tail cut at xmin. A fit whose KS distance reaches
// stopKS cannot beat a fit with that distance under a strict <, so its
// KS is abandoned at the first term that reaches it.
func (f *tailFitter) powerLaw(xmin int, stopKS float64) PowerLawFit {
	n := len(f.tail)
	if n < 2 {
		return PowerLawFit{XMin: xmin, NTail: n}
	}
	alpha := f.alpha(xmin)
	return PowerLawFit{Alpha: alpha, XMin: xmin, NTail: n, KS: f.ksPowerLaw(xmin, alpha, stopKS)}
}

// alpha is the power-law MLE of a tail of at least 2 samples cut at
// xmin.
func (f *tailFitter) alpha(xmin int) float64 {
	s := 0.0
	for _, d := range f.tail {
		s += math.Log(float64(d) / (float64(xmin) - 0.5))
	}
	return 1 + float64(len(f.tail))/s
}

// ksPowerLaw is the KS distance between the tail's empirical CDF and the
// fitted discrete power law, normalized over the observed support range
// [xmin, maxDeg] (a truncated zeta, the standard practical
// approximation), or a value >= stopKS once the distance provably
// reaches stopKS: the running maximum at the first term that reaches
// it, or stopKS itself when plReaches proves it before the normalizer
// is paid for.
func (f *tailFitter) ksPowerLaw(xmin int, alpha, stopKS float64) float64 {
	w := f.weights[:f.maxDeg()-xmin+1]
	known := 0
	if !math.IsInf(stopKS, 1) {
		var reaches bool
		if known, reaches = f.plReaches(xmin, alpha, stopKS, w); reaches {
			return stopKS
		}
	}
	total := 0.0
	for i := range w {
		if i >= known {
			w[i] = math.Pow(float64(xmin+i), -alpha)
		}
		total += w[i]
	}
	f.terms += len(w) - known
	n := float64(len(f.tail))
	ks, model, emp := 0.0, 0.0, 0.0
	for i, wi := range w {
		model += wi / total
		emp += float64(f.hist[xmin+i]) / n
		if d := math.Abs(emp - model); d > ks {
			if ks = d; ks >= stopKS {
				break
			}
		}
	}
	return ks
}

// plLead is the number of leading support points at which plReaches
// first bounds the power-law model CDF; it doubles the count while the
// bound leaves the distance undecided.
const plLead = 8

// ksSlack is the margin by which a bound on |emp - model| must reach
// stopKS before a pre-check counts the distance as reached. The exact
// path sums up to maxDeg rounded masses into its normalizer and CDF, so
// its model values sit within a few hundred ulps per support point of
// the real ones; ksSlack, widened by the support size, covers that with
// room to spare.
const ksSlack = 1e-9

// plReaches reports whether the KS distance of the power law fitted at
// xmin provably reaches stopKS at one of its leading support points,
// without paying for the normalizer over the whole support. The masses
// of the leading points are computed exactly, as the exact path computes
// them, and stored in w[:known] for it to reuse; the rest of the
// normalizer is bounded by Euler-Maclaurin (zetaBounds). The leading
// count doubles from plLead while the distance stays undecided, up to a
// quarter of the support. Where the bound does not decide, or cannot be
// trusted (alpha not above 1, masses near underflow), it reports false
// and the exact path runs.
func (f *tailFitter) plReaches(xmin int, alpha, stopKS float64, w []float64) (known int, reaches bool) {
	if !(alpha > 1) || math.IsInf(alpha, 1) {
		return 0, false
	}
	n := float64(len(f.tail))
	reach := stopKS + ksSlack + float64(len(w))*0x1p-50
	lead, emp, cum, checked := 0.0, 0.0, 0.0, 0
	for next := min(plLead, len(w)); ; next = min(2*next, len(w)) {
		for ; known < next; known++ {
			w[known] = math.Pow(float64(xmin+known), -alpha)
			lead += w[known]
			f.terms++
		}
		if known == len(w) || w[0] < 0x1p-900 {
			return known, false
		}
		lo, hi := zetaBounds(float64(xmin+known), float64(f.maxDeg()), alpha)
		f.terms += zetaBoundTerms
		zlo, zhi := lead+lo, lead+hi
		for ; checked < known; checked++ {
			emp += float64(f.hist[xmin+checked]) / n
			cum += w[checked]
			if emp-cum/zlo >= reach || cum/zhi-emp >= reach {
				return known, true
			}
		}
		if 4*known >= len(w) {
			return known, false
		}
	}
}

// zetaBoundTerms is the number of transcendental calls zetaBounds makes,
// counted with the model-CDF terms.
const zetaBoundTerms = 6

// zetaBounds returns a lower and an upper bound on the sum of k^-alpha
// over the integers k in [a, m], for 1 < a < m and alpha > 1: the
// trapezoid and midpoint rules, which bound the sum of a convex function
// from below and above. The integrals are taken in the form
// x0^(1-alpha) * -expm1((1-alpha) * log(x1/x0)) / (alpha-1), which
// keeps full relative precision however close alpha is to 1.
func zetaBounds(a, m, alpha float64) (lo, hi float64) {
	e := alpha - 1
	pa := math.Pow(a, -e)                      // a^(1-alpha)
	em := math.Expm1(-e * math.Log1p((m-a)/a)) // (m/a)^(1-alpha) - 1
	pm := pa * (1 + em)                        // m^(1-alpha)
	lo = pa*-em/e + (pa/a+pm/m)/2
	ph := math.Pow(a-0.5, -e)
	hi = ph * -math.Expm1(-e*math.Log1p((m-a+1)/(a-0.5))) / e
	return lo, hi
}

// exponential fits the tail cut at xmin, abandoning the KS distance at
// stopKS as powerLaw does.
func (f *tailFitter) exponential(xmin int, stopKS float64) ExponentialFit {
	n := len(f.tail)
	if n < 2 {
		return ExponentialFit{XMin: xmin, NTail: n}
	}
	lambda := f.lambda(xmin)
	if math.IsInf(lambda, 1) {
		return ExponentialFit{Lambda: lambda, XMin: xmin, NTail: n}
	}
	return ExponentialFit{Lambda: lambda, XMin: xmin, NTail: n, KS: f.ksGeometric(xmin, lambda, stopKS)}
}

// lambda is the geometric MLE of a tail of at least 2 samples cut at
// xmin, +Inf when all its mass sits at xmin.
func (f *tailFitter) lambda(xmin int) float64 {
	mean := 0.0
	for _, d := range f.tail {
		mean += float64(d)
	}
	mean /= float64(len(f.tail))
	excess := mean - float64(xmin)
	if excess <= 0 {
		return math.Inf(1)
	}
	return math.Log(1 + 1/excess)
}

// ksGeometric is the KS distance between the tail's empirical CDF and the
// shifted geometric P(K <= k) = 1 - q^(k-xmin+1), q = exp(-lambda), or a
// value >= stopKS once the distance reaches stopKS: the running maximum
// at the first term that reaches it, or stopKS itself when geoReaches
// finds it first.
func (f *tailFitter) ksGeometric(xmin int, lambda, stopKS float64) float64 {
	q := math.Exp(-lambda)
	if !math.IsInf(stopKS, 1) && f.geoReaches(xmin, q, stopKS) {
		return stopKS
	}
	n := float64(len(f.tail))
	ks, emp := 0.0, 0.0
	for i := range f.maxDeg() - xmin + 1 {
		f.terms++
		emp += float64(f.hist[xmin+i]) / n
		model := 1 - math.Pow(q, float64(i+1))
		if d := math.Abs(emp - model); d > ks {
			if ks = d; ks >= stopKS {
				break
			}
		}
	}
	return ks
}

// geoReaches reports whether the geometric KS distance at xmin reaches
// stopKS at a jump of the empirical CDF or at the point just before one,
// where the distance on each flat stretch between jumps peaks. The model
// CDF has the closed form 1 - q^(i+1), and adding a zero count leaves
// the empirical sum unchanged, so each distance it computes is the one
// the exact path computes at that point, and no margin is needed.
func (f *tailFitter) geoReaches(xmin int, q, stopKS float64) bool {
	n := float64(len(f.tail))
	emp, next := 0.0, 0 // next: the first point not yet checked
	for i := range f.maxDeg() - xmin + 1 {
		h := f.hist[xmin+i]
		if h == 0 {
			continue
		}
		if i > next {
			f.terms++
			if math.Abs(emp-(1-math.Pow(q, float64(i)))) >= stopKS {
				return true
			}
		}
		emp += float64(h) / n
		f.terms++
		if math.Abs(emp-(1-math.Pow(q, float64(i+1)))) >= stopKS {
			return true
		}
		next = i + 1
	}
	return false
}

// walk runs the Clauset-style xmin scan for both models at once: xmin
// rises from 1 while at least 10 samples remain in the tail, tails with
// a single support point are skipped (they fit anything perfectly), and
// each model keeps its fit of smallest KS distance, the first one on
// ties. A model no xmin fits falls back to its fit at xmin 1. degrees
// must be the sample f was built from.
func (f *tailFitter) walk(degrees []int, maxXMin int) (PowerLawFit, ExponentialFit) {
	if len(degrees) == 0 {
		return PowerLawFit{}, ExponentialFit{}
	}
	if maxXMin <= 0 || maxXMin > f.maxDeg() {
		maxXMin = f.maxDeg()
	}
	pl := PowerLawFit{KS: math.Inf(1)}
	exp := ExponentialFit{KS: math.Inf(1)}
	for xmin := 1; xmin <= maxXMin && f.atLeast[xmin] >= 10; xmin++ {
		if f.distinct[xmin] < 2 {
			continue
		}
		f.cut(xmin)
		if fit := f.powerLaw(xmin, pl.KS); fit.KS < pl.KS {
			pl = fit
		}
		if fit := f.exponential(xmin, exp.KS); !math.IsInf(fit.Lambda, 1) && fit.KS < exp.KS {
			exp = fit
		}
	}
	if math.IsInf(pl.KS, 1) || math.IsInf(exp.KS, 1) {
		g := newTailFitter(degrees)
		if math.IsInf(pl.KS, 1) {
			pl = g.powerLaw(1, math.Inf(1))
		}
		if math.IsInf(exp.KS, 1) {
			exp = g.exponential(1, math.Inf(1))
		}
		f.terms += g.terms
	}
	return pl, exp
}

// TailClassification is the outcome of comparing power-law and exponential
// fits on the same tail.
type TailClassification struct {
	Kind        TailKind
	PowerLaw    PowerLawFit
	Exponential ExponentialFit
	// LogLikRatio is sum log pPL - sum log pExp over the common tail.
	// Positive favours the power law.
	LogLikRatio float64
}

// ClassifyTail decides whether the degree distribution looks more like a
// power law or an exponential (geometric). Both models get the same
// treatment: a Clauset-style xmin scan minimizing the KS distance of
// their own tail fit; the model whose best fit tracks the data more
// closely (smaller KS) wins. This symmetric rule is robust where a
// one-sided Clauset comparison is not — a deep, tiny tail can locally
// prefer a power law even when the whole distribution is near-perfectly
// geometric, and a support floor (e.g. min degree 2 in BA graphs) ruins
// full-support likelihood comparisons. The scan rules out by bound the
// xmins whose KS distance cannot beat the best so far before computing
// it (see tailFitter), which changes no fit.
//
// LogLikRatio reports the total log-likelihood difference of the two
// models fit at the common support floor (the minimum observed degree),
// positive favouring the power law; it is diagnostic output, not the
// decision criterion. Small or degenerate samples are TailUndetermined.
func ClassifyTail(degrees []int) TailClassification {
	c, _ := classifyTail(degrees)
	return c
}

// classifyTail is ClassifyTail that also returns the number of model-CDF
// terms its KS distances evaluated, with the transcendental calls of
// their bound pre-checks, the exact work count the package benchmark
// reports.
func classifyTail(degrees []int) (TailClassification, int) {
	f := newTailFitter(degrees)
	// The floor fits: every sample >= 1 is >= the support floor, so the
	// uncut tail is the floor's tail.
	minDeg := 1
	if len(degrees) > 0 {
		minDeg = max(slices.Min(degrees), 1)
	}
	floorN := len(f.tail)
	var floorAlpha, floorLambda float64
	if floorN >= 2 {
		floorAlpha, floorLambda = f.alpha(minDeg), f.lambda(minDeg)
	}
	pl, exp := f.walk(degrees, 0)
	out := TailClassification{PowerLaw: pl, Exponential: exp}
	if pl.NTail < 10 || exp.NTail < 10 {
		out.Kind = TailUndetermined
		return out, f.terms
	}
	// Diagnostic likelihood ratio at the common support floor.
	maxDeg := f.maxDeg()
	if floorN >= 10 && !math.IsInf(floorLambda, 1) && floorAlpha > 1 {
		zPL, zExp := 0.0, 0.0
		for k := minDeg; k <= maxDeg; k++ {
			zPL += math.Pow(float64(k), -floorAlpha)
			zExp += math.Exp(-floorLambda * float64(k-minDeg))
		}
		for _, d := range degrees {
			if d < minDeg {
				continue
			}
			lpPL := -floorAlpha*math.Log(float64(d)) - math.Log(zPL)
			lpExp := -floorLambda*float64(d-minDeg) - math.Log(zExp)
			out.LogLikRatio += lpPL - lpExp
		}
	}
	if math.IsInf(exp.Lambda, 1) {
		// Degenerate point mass: certainly not a power law.
		out.Kind = TailExponential
		return out, f.terms
	}
	if pl.KS < exp.KS {
		out.Kind = TailPowerLaw
	} else {
		out.Kind = TailExponential
	}
	return out, f.terms
}
