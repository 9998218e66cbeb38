// Package anonymize addresses the paper's §5 research-agenda question:
// "Is it possible to accurately, yet anonymously characterize an ISP
// topology?" It offers transformations a provider could apply before
// sharing a topology: identity scrubbing (labels, id permutation),
// geographic coarsening (grid snapping plus jitter), and a structural
// summary that preserves exactly the aggregate statistics researchers
// need while revealing nothing node-level.
package anonymize

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Options configure Scrub.
type Options struct {
	Seed int64
	// PermuteIDs relabels nodes by a random permutation.
	PermuteIDs bool
	// StripLabels removes node labels (city names, provider tags).
	StripLabels bool
	// CoarsenGrid > 0 snaps coordinates to a CoarsenGrid x CoarsenGrid
	// grid over the topology's bounding box, hiding exact sites.
	CoarsenGrid int
	// StripKinds removes the node role annotations.
	StripKinds bool
}

// Scrub returns an anonymized copy of g. The underlying connectivity
// (the unlabeled graph up to isomorphism) is preserved exactly, so every
// structural metric is unchanged; identities, exact locations, and roles
// are removed per the options.
func Scrub(g *graph.Graph, opts Options) *graph.Graph {
	n := g.NumNodes()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if opts.PermuteIDs {
		perm = rng.Shuffle(rng.New(opts.Seed), n)
	}
	// Bounding box for coarsening.
	var minX, minY, maxX, maxY float64
	if n > 0 {
		n0 := g.Node(0)
		minX, minY, maxX, maxY = n0.X, n0.Y, n0.X, n0.Y
		for v := 1; v < n; v++ {
			nd := g.Node(v)
			if nd.X < minX {
				minX = nd.X
			}
			if nd.Y < minY {
				minY = nd.Y
			}
			if nd.X > maxX {
				maxX = nd.X
			}
			if nd.Y > maxY {
				maxY = nd.Y
			}
		}
	}
	snap := func(v, lo, hi float64) float64 {
		if opts.CoarsenGrid <= 0 || hi <= lo {
			return v
		}
		k := float64(opts.CoarsenGrid)
		cell := (v - lo) / (hi - lo) * k
		idx := float64(int(cell))
		if idx >= k {
			idx = k - 1
		}
		return lo + (idx+0.5)/k*(hi-lo)
	}

	out := graph.New(n)
	// perm[old] = position in shuffle output; build inverse placement:
	// new id of old node v is pos[v].
	pos := make([]int, n)
	for newID, oldID := range perm {
		pos[oldID] = newID
	}
	// Add nodes in new-id order.
	ordered := make([]graph.Node, n)
	for old := 0; old < n; old++ {
		nd := *g.Node(old)
		if opts.StripLabels {
			nd.Label = ""
		}
		if opts.StripKinds {
			nd.Kind = graph.KindUnknown
		}
		nd.X = snap(nd.X, minX, maxX)
		nd.Y = snap(nd.Y, minY, maxY)
		ordered[pos[old]] = nd
	}
	for _, nd := range ordered {
		out.AddNode(nd)
	}
	for _, e := range g.Edges() {
		ne := e
		ne.U, ne.V = pos[e.U], pos[e.V]
		out.AddEdge(ne)
	}
	return out
}

// Summary is the aggregate characterization a provider can publish
// instead of (or alongside) a scrubbed graph: nothing in it identifies a
// node, yet it pins down the statistics the paper's validation agenda
// (§5) asks about.
type Summary struct {
	Nodes, Edges  int
	MeanDegree    float64
	MaxDegree     int
	DegreeCCDF    []stats.CCDFPoint
	TailKind      string
	PowerLawAlpha float64
	ExpLambda     float64
	Clustering    float64
	Assortativity float64
	Profile       metrics.Profile
}

// Summarize computes the aggregate characterization of g.
func Summarize(g *graph.Graph, seed int64) Summary {
	ds := stats.AnalyzeDegrees(g)
	// With these fixed metric sets on a graph source, both evaluations
	// fail only when their context ends, and Background never does.
	c := g.Freeze()
	prof, _ := metrics.ProfileContext(context.Background(), g, c, seed, 0)
	vals, _ := metricreg.Evaluate(context.Background(), metricreg.NewSource(g, c),
		[]metricreg.Selection{{Name: "clustering"}, {Name: "assortativity"}}, metricreg.Options{Workers: 1})
	return Summary{
		Nodes:         g.NumNodes(),
		Edges:         g.NumEdges(),
		MeanDegree:    ds.MeanDegree,
		MaxDegree:     ds.MaxDegree,
		DegreeCCDF:    stats.DegreeCCDF(ds.Degrees),
		TailKind:      ds.Classification.Kind.String(),
		PowerLawAlpha: ds.Classification.PowerLaw.Alpha,
		ExpLambda:     ds.Classification.Exponential.Lambda,
		Clustering:    vals["clustering"].Scalar,
		Assortativity: vals["assortativity"].Scalar,
		Profile:       prof,
	}
}

// String renders the summary in a compact human-readable block.
func (s Summary) String() string {
	return fmt.Sprintf(
		"nodes=%d edges=%d meanDeg=%.3f maxDeg=%d tail=%s(alpha=%.2f,lambda=%.3f) clust=%.4f assort=%.4f expansion@3=%.4f resilience=%.4f distortion=%.3f",
		s.Nodes, s.Edges, s.MeanDegree, s.MaxDegree, s.TailKind,
		s.PowerLawAlpha, s.ExpLambda, s.Clustering, s.Assortativity,
		s.Profile.ExpansionAt3, s.Profile.Resilience, s.Profile.Distortion)
}
