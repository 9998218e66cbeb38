// Package validate implements the paper's §5 validation agenda: "What
// metrics and measurements will be required to validate or invalidate
// the resulting class of explanatory models?" It provides tools to
// compare a generated topology against a reference (measured) topology
// across the full metric suite.
package validate

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/metrics"
)

// MetricVector is the standardized characterization used for topology
// comparison. All entries are dimensionless or size-normalized so that
// topologies of different sizes can be compared.
type MetricVector struct {
	MeanDegree    float64
	DegreeCV      float64 // coefficient of variation of degrees
	TopDegreeFrac float64
	Clustering    float64
	Assortativity float64
	ExpansionAt3  float64
	Resilience    float64
	Distortion    float64
	HierDepth     float64
	SpectralGap   float64
}

// Names returns the metric names in canonical order.
func (MetricVector) Names() []string {
	return []string{
		"meanDegree", "degreeCV", "topDegreeFrac", "clustering",
		"assortativity", "expansion@3", "resilience", "distortion",
		"hierDepth", "spectralGap",
	}
}

// Values returns the metric values in canonical order.
func (v MetricVector) Values() []float64 {
	return []float64{
		v.MeanDegree, v.DegreeCV, v.TopDegreeFrac, v.Clustering,
		v.Assortativity, v.ExpansionAt3, v.Resilience, v.Distortion,
		v.HierDepth, v.SpectralGap,
	}
}

// MeasureContext computes the metric vector of a topology. A nil or
// empty topology wraps errs.ErrBadParam, and a canceled context
// surfaces as an errs.ErrCanceled-wrapping error from the underlying
// metric evaluation.
func MeasureContext(ctx context.Context, g *graph.Graph, seed int64) (MetricVector, error) {
	if g == nil || g.NumNodes() == 0 {
		return MetricVector{}, errs.BadParamf("validate: empty topology")
	}
	// One fused registry evaluation: the profile battery plus the degree,
	// clustering and assortativity statistics share a single Source (one
	// freeze) and one parallel schedule.
	set := append(metrics.ProfileSet(),
		metricreg.Selection{Name: "mean-degree"},
		metricreg.Selection{Name: "degree-cv"},
		metricreg.Selection{Name: "top-degree-frac"},
		metricreg.Selection{Name: "clustering"},
		metricreg.Selection{Name: "assortativity"})
	vals, err := metricreg.Evaluate(ctx, metricreg.NewSource(g, nil), set,
		metricreg.Options{Seed: seed})
	if err != nil {
		return MetricVector{}, err
	}
	out := MetricVector{
		MeanDegree:    vals["mean-degree"].Scalar,
		DegreeCV:      vals["degree-cv"].Scalar,
		TopDegreeFrac: vals["top-degree-frac"].Scalar,
		Clustering:    vals["clustering"].Scalar,
		Assortativity: vals["assortativity"].Scalar,
		Resilience:    vals["resilience"].Scalar,
		Distortion:    vals["distortion"].Scalar,
		HierDepth:     vals["hierarchy-depth"].Scalar,
		SpectralGap:   vals["spectral-gap"].Scalar,
	}
	if s := vals["expansion"].Series; len(s) > 3 {
		out.ExpansionAt3 = s[3]
	}
	return out, nil
}

// Comparison is the outcome of comparing a candidate against a
// reference topology.
type Comparison struct {
	Reference, Candidate MetricVector
	// RelDiff[i] = |cand - ref| / max(|ref|, eps), in Names() order.
	RelDiff []float64
	// Distance is the mean relative difference across metrics — a single
	// "how dissimilar" score in [0, inf).
	Distance float64
	// DegreeKS is the Kolmogorov–Smirnov distance between the two degree
	// CCDFs — the descriptive-generator matching target, reported
	// separately so "matches degrees but not structure" is visible.
	DegreeKS float64
}

// CompareContext measures both graphs and scores their dissimilarity.
// Either topology nil or empty wraps errs.ErrBadParam; a canceled
// context surfaces as errs.ErrCanceled.
func CompareContext(ctx context.Context, ref, cand *graph.Graph, seed int64) (Comparison, error) {
	rv, err := MeasureContext(ctx, ref, seed)
	if err != nil {
		return Comparison{}, fmt.Errorf("validate: reference: %w", err)
	}
	cv, err := MeasureContext(ctx, cand, seed)
	if err != nil {
		return Comparison{}, fmt.Errorf("validate: candidate: %w", err)
	}
	const eps = 1e-6
	rvs, cvs := rv.Values(), cv.Values()
	out := Comparison{Reference: rv, Candidate: cv, RelDiff: make([]float64, len(rvs))}
	total := 0.0
	for i := range rvs {
		denom := math.Abs(rvs[i])
		if denom < eps {
			denom = eps
		}
		out.RelDiff[i] = math.Abs(cvs[i]-rvs[i]) / denom
		total += out.RelDiff[i]
	}
	out.Distance = total / float64(len(rvs))
	out.DegreeKS = DegreeKS(ref.Degrees(), cand.Degrees())
	return out, nil
}

// Format renders a comparison as an aligned table.
func (c Comparison) Format() string {
	var b strings.Builder
	names := c.Reference.Names()
	rvs, cvs := c.Reference.Values(), c.Candidate.Values()
	fmt.Fprintf(&b, "%-14s %10s %10s %8s\n", "metric", "reference", "candidate", "relDiff")
	for i, n := range names {
		fmt.Fprintf(&b, "%-14s %10.4f %10.4f %8.3f\n", n, rvs[i], cvs[i], c.RelDiff[i])
	}
	fmt.Fprintf(&b, "%-14s %10s %10s %8.3f\n", "distance", "", "", c.Distance)
	fmt.Fprintf(&b, "%-14s %10s %10s %8.3f\n", "degreeKS", "", "", c.DegreeKS)
	return b.String()
}

// DegreeKS returns the KS distance between two empirical degree
// distributions. 0 means identical; 1 means disjoint supports.
func DegreeKS(a, b []int) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	maxDeg := 0
	for _, d := range a {
		if d > maxDeg {
			maxDeg = d
		}
	}
	for _, d := range b {
		if d > maxDeg {
			maxDeg = d
		}
	}
	ca := make([]float64, maxDeg+2)
	cb := make([]float64, maxDeg+2)
	for _, d := range a {
		ca[d]++
	}
	for _, d := range b {
		cb[d]++
	}
	ks, accA, accB := 0.0, 0.0, 0.0
	for k := 0; k <= maxDeg; k++ {
		accA += ca[k] / float64(len(a))
		accB += cb[k] / float64(len(b))
		if d := math.Abs(accA - accB); d > ks {
			ks = d
		}
	}
	return ks
}
