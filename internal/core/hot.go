package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/rng"
)

// HOTConfig parameterizes the generalized optimization-driven growth.
// An arrival at p prices attaching to an earlier node j at
//
//	Distance·|p−j| + Centrality·hops(j) + Load·deg(j) + RootDist·|j−root|
//
// where hops(j) is j's tree hop distance to the root and deg(j) its
// current degree. Every weight is >= 0 and at least one is positive.
type HOTConfig struct {
	N      int
	Seed   int64
	Region geom.Rect // zero value = unit square
	// Distance is the last-mile cost per unit of cable length: per-mile
	// installation cost, the paper's §2.1 economic driver.
	Distance float64
	// Centrality prices the candidate's hop distance to the root,
	// penalizing attachment far from the network core (the performance
	// driver).
	Centrality float64
	// Load prices the candidate's degree: congestion or router
	// utilization cost, a soft port constraint.
	Load float64
	// RootDist prices the candidate's Euclidean distance to the root, a
	// geometric centrality.
	RootDist float64
	// MaxDegree is the hard router port limit the paper's §2.1 names as
	// the canonical technology constraint: a candidate already holding
	// MaxDegree links is infeasible. 0 means no cap.
	MaxDegree int
	// MaxLength forbids links longer than it, the reach limit of the
	// underlying Level-2 technology (§2.1/§2.4). 0 means no cap.
	MaxLength float64
	// LinksPerArrival is how many (distinct, feasible) attachment targets
	// each arriving node connects to; 1 grows a tree, 2+ grows a
	// redundantly-connected graph. Arrivals connect to as many as exist.
	LinksPerArrival int
	// Arrivals optionally fixes the arrival locations (paper §2.1:
	// customers are not uniform — they concentrate in the big cities).
	// When non-nil it must hold at least N-1 points; arrival i uses
	// Arrivals[i-1] and Region is ignored for placement.
	Arrivals []geom.Point
}

// Validate reports a configuration error (wrapping errs.ErrBadParam), or
// nil.
func (c *HOTConfig) Validate() error {
	if c.N < 1 {
		return errs.BadParamf("core: HOT N = %d, need >= 1", c.N)
	}
	positive := false
	for _, w := range []struct {
		name string
		v    float64
	}{{"Distance", c.Distance}, {"Centrality", c.Centrality}, {"Load", c.Load}, {"RootDist", c.RootDist}} {
		if !(w.v >= 0) {
			return errs.BadParamf("core: HOT %s = %v, need >= 0", w.name, w.v)
		}
		positive = positive || w.v > 0
	}
	if !positive {
		return errs.BadParamf("core: HOT needs a positive cost weight")
	}
	if c.MaxDegree < 0 {
		return errs.BadParamf("core: HOT MaxDegree = %d, need >= 0", c.MaxDegree)
	}
	if !(c.MaxLength >= 0) {
		return errs.BadParamf("core: HOT MaxLength = %v, need >= 0", c.MaxLength)
	}
	if c.LinksPerArrival < 0 {
		return errs.BadParamf("core: LinksPerArrival = %d, need >= 0", c.LinksPerArrival)
	}
	if c.Arrivals != nil && len(c.Arrivals) < c.N-1 {
		return errs.BadParamf("core: Arrivals holds %d points, need >= N-1 = %d", len(c.Arrivals), c.N-1)
	}
	return nil
}

// GrowHOTContext runs the generalized incremental optimization growth:
// each arriving node attaches to the LinksPerArrival feasible existing
// nodes with the lowest cost (ties resolved toward the smallest
// candidate id; links are added in ascending (cost, id) order). With
// LinksPerArrival == 1, Distance = alpha and Centrality = 1 this is
// exactly the FKP model, and FKPContext grows through it.
//
// If no candidate is feasible for an arrival, the caps are ignored for
// that arrival and the best uncapped candidate is used;
// Stats.ConstraintViolations counts such arrivals. (A real ISP must
// connect the customer somehow — it deploys a bigger router.)
//
// Each arrival searches the attachment index (geom.Index), at every N;
// the weights are non-negative, so regional cost lower bounds always
// exist, and the growth parity tests pin its selections bit-identical
// to an O(n) scan of every earlier node. Its work per arrival still
// grows with n (see geom.Index for measured figures). The growth loop
// checks ctx at every arrival and returns an errs.ErrCanceled-wrapping
// error when the context is done.
func GrowHOTContext(ctx context.Context, cfg HOTConfig) (*graph.Graph, *GrowthStats, error) {
	return growHOT(ctx, cfg, false)
}

// growHOT is GrowHOTContext with the candidate scan exposed: exhaustive
// scans every earlier node in id order instead of searching the index,
// the reference the package's tests hold the index to.
func growHOT(ctx context.Context, cfg HOTConfig, exhaustive bool) (*graph.Graph, *GrowthStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	region := cfg.Region
	if region == (geom.Rect{}) {
		region = geom.UnitSquare
	}
	r := rng.New(cfg.Seed)
	g := graph.New(cfg.N)
	rootPt := region.Center()
	g.AddNode(graph.Node{Kind: graph.KindCore, X: rootPt.X, Y: rootPt.Y})
	hops := make([]float64, 1, cfg.N)     // tree hop distance to the root
	rootDist := make([]float64, 1, cfg.N) // Euclidean distance to the root
	stats := &GrowthStats{}

	statW := [geom.IndexStats]float64{statHops: cfg.Centrality, statRootDist: cfg.RootDist, statDeg: cfg.Load}
	noLen := math.Inf(1)
	maxLen := noLen
	if cfg.MaxLength > 0 {
		maxLen = cfg.MaxLength
	}
	var ix *geom.Index
	if !exhaustive {
		var track [geom.IndexStats]bool
		for s, w := range statW {
			track[s] = w > 0
		}
		ix = geom.NewIndex(region.Union(geom.Bounds(rootPt, cfg.Arrivals)), cfg.N, track)
		ix.Add(0, rootPt, &[geom.IndexStats]float64{})
	}

	// Both scans hand every candidate to eval, which reads the arrival's
	// p and whether the caps apply, so the cost arithmetic compiles once
	// and the selections are bit-identical; its one call site lets the
	// exhaustive scan inline it. Each product is rounded on its own, so
	// no platform fuses it into the sum, and a zero weight, whose product
	// would add an exact +0, is skipped. At most N-1 earlier nodes exist,
	// so a list of N holds every selection and LinksPerArrival never
	// sizes an allocation.
	var p geom.Point
	capped := true
	best := geom.NewCandList(min(max(cfg.LinksPerArrival, 1), cfg.N))
	eval := func(id int32) {
		j := int(id)
		nj := g.Node(j)
		d := p.Dist(geom.Point{X: nj.X, Y: nj.Y})
		if capped && (d > maxLen || cfg.MaxDegree > 0 && g.Degree(j) >= cfg.MaxDegree) {
			return
		}
		cost := float64(cfg.Distance*d) + float64(cfg.Centrality*hops[j])
		if cfg.Load != 0 {
			cost += float64(cfg.Load * float64(g.Degree(j)))
		}
		if cfg.RootDist != 0 {
			cost += float64(cfg.RootDist * rootDist[j])
		}
		best.Consider(j, cost)
	}

	for i := 1; i < cfg.N; i++ {
		if err := errs.Ctx(ctx); err != nil {
			return nil, nil, fmt.Errorf("core: HOT at arrival %d: %w", i, err)
		}
		if cfg.Arrivals != nil {
			p = cfg.Arrivals[i-1]
		} else {
			p = region.RandomPoint(r)
		}
		// The capped scan, then an uncapped one if it found no candidate:
		// the index search, or every earlier node in id order.
		best.Reset()
		for _, capped = range [2]bool{true, false} {
			if ix == nil {
				for j := range i {
					eval(int32(j))
				}
			} else {
				lim := noLen
				if capped {
					lim = maxLen
				}
				ix.Search(p, cfg.Distance, &statW, lim, best, eval)
			}
			if !best.Empty() {
				break
			}
			stats.ConstraintViolations++
		}
		id := g.AddNode(graph.Node{Kind: graph.KindCustomer, X: p.X, Y: p.Y})
		minHops := 0.0
		for k, c := range best.Best() {
			nj := g.Node(c.ID)
			w := p.Dist(geom.Point{X: nj.X, Y: nj.Y})
			g.AddEdge(graph.Edge{U: c.ID, V: id, Weight: w})
			stats.TotalLinkLength += w
			h := hops[c.ID] + 1
			if k == 0 || h < minHops {
				minHops = h
			}
		}
		hops = append(hops, minHops)
		rootDist = append(rootDist, p.Dist(rootPt))
		if ix != nil {
			vals := [geom.IndexStats]float64{
				statHops:     minHops,
				statRootDist: rootDist[id],
				statDeg:      float64(g.Degree(id)),
			}
			ix.Add(int32(id), p, &vals)
		}
	}
	if ix != nil {
		stats.evals, stats.cells = ix.Evals(), ix.Cells()
	}
	return g, stats, nil
}

// The index stat slots the growth loop fills. Each stat is either
// immutable once a node arrives (its tree hop count, its distance to the
// root) or monotone non-decreasing over the run (degree), as geom.Index
// requires.
const (
	statHops     = iota // tree hop distance to root (immutable)
	statRootDist        // Euclidean distance to root (immutable)
	statDeg             // degree at insertion (monotone under growth)
)

// GrowthStats reports aggregate facts about a GrowHOTContext run.
type GrowthStats struct {
	TotalLinkLength      float64
	ConstraintViolations int
	// evals and cells count the candidates the attachment index
	// evaluated and the cells whose bound it tested, 0 on the exhaustive
	// scan; the package benchmarks report them.
	evals, cells int
}
