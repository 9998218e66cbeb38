package stats

import "math"

// ClassifyTailTerms exposes classifyTail, with its count of model-CDF
// terms, to the external test package's benchmark.
var ClassifyTailTerms = classifyTail

// TailWalk runs the xmin walk ClassifyTail starts from, on a fresh
// fitter: each model's fit of least KS distance over xmin in [1,
// maxXMin].
func TailWalk(degrees []int, maxXMin int) (PowerLawFit, ExponentialFit) {
	return newTailFitter(degrees).walk(degrees, maxXMin)
}

// PowerLawAt fits a power law to the tail cut at xmin (at least 1), as
// FitExponential does the geometric.
func PowerLawAt(degrees []int, xmin int) PowerLawFit {
	xmin = max(xmin, 1)
	f := newTailFitter(degrees)
	f.cut(xmin)
	return f.powerLaw(xmin, math.Inf(1))
}
