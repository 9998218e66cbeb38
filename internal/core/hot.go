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

// GrowthState is the read-only view of the network an objective term or
// constraint sees when a new node arrives.
type GrowthState struct {
	Graph *graph.Graph
	// Hops holds tree hop distance to the root for every existing node.
	Hops []float64
	// Root is the root's location.
	Root geom.Point
	// Arrival is the index the new node will receive.
	Arrival int
}

// ObjectiveTerm contributes one weighted component of the attachment cost
// for connecting the arriving point to candidate node j. Lower is better.
type ObjectiveTerm interface {
	// Cost evaluates the term for attaching `p` to candidate `j`.
	Cost(s *GrowthState, p geom.Point, j int) float64
	// Name identifies the term in reports.
	Name() string
}

// Constraint filters attachment candidates; infeasible candidates are
// never selected.
type Constraint interface {
	// Feasible reports whether the arriving point may attach to j.
	Feasible(s *GrowthState, p geom.Point, j int) bool
	// Name identifies the constraint in reports.
	Name() string
}

// DistanceTerm is the last-mile cost: Weight * Euclidean distance.
// It models per-mile cable installation cost (the paper's §2.1 economic
// driver).
type DistanceTerm struct{ Weight float64 }

// Cost implements ObjectiveTerm.
func (t DistanceTerm) Cost(s *GrowthState, p geom.Point, j int) float64 {
	nj := s.Graph.Node(j)
	return t.Weight * p.Dist(geom.Point{X: nj.X, Y: nj.Y})
}

// Name implements ObjectiveTerm.
func (t DistanceTerm) Name() string { return "distance" }

// CentralityTerm is the performance cost: Weight * hop distance from the
// candidate to the root, penalizing attachment far from the network core
// (the paper's performance driver).
type CentralityTerm struct{ Weight float64 }

// Cost implements ObjectiveTerm.
func (t CentralityTerm) Cost(s *GrowthState, _ geom.Point, j int) float64 {
	return t.Weight * s.Hops[j]
}

// Name implements ObjectiveTerm.
func (t CentralityTerm) Name() string { return "centrality" }

// LoadTerm penalizes attaching to already-busy nodes: Weight * degree(j).
// It models congestion / router utilization cost and acts as a soft port
// constraint.
type LoadTerm struct{ Weight float64 }

// Cost implements ObjectiveTerm.
func (t LoadTerm) Cost(s *GrowthState, _ geom.Point, j int) float64 {
	return t.Weight * float64(s.Graph.Degree(j))
}

// Name implements ObjectiveTerm.
func (t LoadTerm) Name() string { return "load" }

// RootDistTerm penalizes candidates geographically far from the root,
// a geometric centrality alternative.
type RootDistTerm struct{ Weight float64 }

// Cost implements ObjectiveTerm.
func (t RootDistTerm) Cost(s *GrowthState, _ geom.Point, j int) float64 {
	nj := s.Graph.Node(j)
	return t.Weight * geom.Point{X: nj.X, Y: nj.Y}.Dist(s.Root)
}

// Name implements ObjectiveTerm.
func (t RootDistTerm) Name() string { return "root-dist" }

// MaxDegreeConstraint is the hard router port limit the paper's §2.1
// names as the canonical technology constraint.
type MaxDegreeConstraint struct{ Max int }

// Feasible implements Constraint.
func (c MaxDegreeConstraint) Feasible(s *GrowthState, _ geom.Point, j int) bool {
	return s.Graph.Degree(j) < c.Max
}

// Name implements Constraint.
func (c MaxDegreeConstraint) Name() string { return fmt.Sprintf("max-degree(%d)", c.Max) }

// MaxLengthConstraint forbids links longer than Max (models reach limits
// of the underlying Level-2 technology, §2.1/§2.4).
type MaxLengthConstraint struct{ Max float64 }

// Feasible implements Constraint.
func (c MaxLengthConstraint) Feasible(s *GrowthState, p geom.Point, j int) bool {
	nj := s.Graph.Node(j)
	return p.Dist(geom.Point{X: nj.X, Y: nj.Y}) <= c.Max
}

// Name implements Constraint.
func (c MaxLengthConstraint) Name() string { return fmt.Sprintf("max-length(%g)", c.Max) }

// HOTConfig parameterizes the generalized optimization-driven growth.
type HOTConfig struct {
	N           int
	Seed        int64
	Region      geom.Rect // zero value = unit square
	Terms       []ObjectiveTerm
	Constraints []Constraint
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
	if len(c.Terms) == 0 {
		return errs.BadParamf("core: HOT needs at least one objective term")
	}
	if c.LinksPerArrival < 0 {
		return errs.BadParamf("core: LinksPerArrival = %d, need >= 0", c.LinksPerArrival)
	}
	if c.Arrivals != nil && len(c.Arrivals) < c.N-1 {
		return errs.BadParamf("core: Arrivals holds %d points, need >= N-1 = %d", len(c.Arrivals), c.N-1)
	}
	return nil
}

// searchPlan is the grid index's view of a term/constraint set: the
// summed weight multiplying candidate distance, the summed weight per
// bounded stat, the tightest length cap, and whether every component is
// one of the built-in types the index can lower-bound.
type searchPlan struct {
	ok     bool
	distW  float64
	statW  [geom.IndexStats]float64
	track  [geom.IndexStats]bool
	maxLen float64
}

// planHOT classifies a HOT term/constraint set for the grid index.
// Negative weights invert a term's monotonicity (regional minimums stop
// lower-bounding the cost contribution), so they disqualify the index.
func planHOT(terms []ObjectiveTerm, cons []Constraint) searchPlan {
	pl := searchPlan{ok: true, maxLen: math.Inf(1)}
	addStat := func(s int, w float64) bool {
		if w < 0 {
			return false
		}
		pl.statW[s] += w
		pl.track[s] = true
		return true
	}
	for _, t := range terms {
		ok := false
		switch tt := t.(type) {
		case DistanceTerm:
			if tt.Weight >= 0 {
				pl.distW += tt.Weight
				ok = true
			}
		case CentralityTerm:
			ok = addStat(statHops, tt.Weight)
		case LoadTerm:
			ok = addStat(statDeg, tt.Weight)
		case RootDistTerm:
			ok = addStat(statRootDist, tt.Weight)
		}
		if !ok {
			pl.ok = false
			return pl
		}
	}
	for _, c := range cons {
		switch cc := c.(type) {
		case MaxDegreeConstraint:
			// Checked per candidate by the shared feasibility closure.
		case MaxLengthConstraint:
			if cc.Max < pl.maxLen {
				pl.maxLen = cc.Max
			}
		default:
			pl.ok = false
			return pl
		}
	}
	return pl
}

// GrowHOTContext runs the generalized incremental optimization growth:
// each arriving node attaches to the LinksPerArrival feasible existing
// nodes with the lowest total objective cost (ties resolved toward the
// smallest candidate id; links are added in ascending (cost, id) order).
// With LinksPerArrival == 1 and Terms = {DistanceTerm{alpha},
// CentralityTerm{1}} this reduces exactly to the FKP model.
//
// If no candidate is feasible for an arrival, the constraint set is
// ignored for that arrival and the best unconstrained candidate is used;
// Stats.ConstraintViolations counts such arrivals. (A real ISP must
// connect the customer somehow — it deploys a bigger router.)
//
// The candidate scan is O(n) per arrival by reference. From
// gridMinNodes arrivals up, configurations whose terms and constraints
// are all built-in types with non-negative weight (so regional cost
// lower bounds exist) search the attachment index (geom.Index) instead,
// which the growth parity tests pin bit-identical. Its work per arrival
// still grows with n (see geom.Index for measured figures).
// The growth loop checks ctx at every arrival and returns an
// errs.ErrCanceled-wrapping error when the context is done.
func GrowHOTContext(ctx context.Context, cfg HOTConfig) (*graph.Graph, *GrowthStats, error) {
	return growHOT(ctx, cfg, gridMinNodes)
}

// growHOT is GrowHOTContext with the candidate scan exposed: eligible
// configurations run the grid index when cfg.N >= gridMin, so 0 forces
// it and math.MaxInt forces the exhaustive reference scan.
func growHOT(ctx context.Context, cfg HOTConfig, gridMin int) (*graph.Graph, *GrowthStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	region := cfg.Region
	if region == (geom.Rect{}) {
		region = geom.UnitSquare
	}
	links := cfg.LinksPerArrival
	if links == 0 {
		links = 1
	}
	r := rng.New(cfg.Seed)
	g := graph.New(cfg.N)
	rootPt := region.Center()
	g.AddNode(graph.Node{Kind: graph.KindCore, X: rootPt.X, Y: rootPt.Y})

	st := &GrowthState{
		Graph: g,
		Hops:  make([]float64, 1, cfg.N),
		Root:  rootPt,
	}
	stats := &GrowthStats{TermNames: termNames(cfg.Terms)}

	plan := planHOT(cfg.Terms, cfg.Constraints)
	var ix *geom.Index
	if plan.ok && cfg.N >= gridMin {
		ix = geom.NewIndex(region.Union(geom.Bounds(rootPt, cfg.Arrivals)), cfg.N, plan.track)
		vals := [geom.IndexStats]float64{statRootDist: 0}
		ix.Add(0, rootPt, &vals)
	}

	// Both search paths funnel every surviving candidate through the same
	// two closures (defined once, reading the per-arrival vars), so the
	// cost arithmetic compiles once and the selections are bit-identical.
	var p geom.Point
	best := geom.NewCandList(links)
	costOf := func(j int) float64 {
		cost := 0.0
		for _, t := range cfg.Terms {
			cost += t.Cost(st, p, j)
		}
		return cost
	}
	evalFeasible := func(j int) {
		for _, c := range cfg.Constraints {
			if !c.Feasible(st, p, j) {
				return
			}
		}
		best.Consider(j, costOf(j))
	}
	evalAny := func(j int) { best.Consider(j, costOf(j)) }
	evalFeasible32 := func(j int32) { evalFeasible(int(j)) }
	evalAny32 := func(j int32) { evalAny(int(j)) }
	noLen := math.Inf(1)

	for i := 1; i < cfg.N; i++ {
		if err := errs.Ctx(ctx); err != nil {
			return nil, nil, fmt.Errorf("core: HOT at arrival %d: %w", i, err)
		}
		if cfg.Arrivals != nil {
			p = cfg.Arrivals[i-1]
		} else {
			p = region.RandomPoint(r)
		}
		st.Arrival = i
		best.Reset()
		if ix != nil {
			ix.Search(p, plan.distW, &plan.statW, plan.maxLen, best, evalFeasible32)
			if best.Empty() {
				stats.ConstraintViolations++
				ix.Search(p, plan.distW, &plan.statW, noLen, best, evalAny32)
			}
		} else {
			for j := 0; j < i; j++ {
				evalFeasible(j)
			}
			if best.Empty() {
				stats.ConstraintViolations++
				for j := 0; j < i; j++ {
					evalAny(j)
				}
			}
		}
		id := g.AddNode(graph.Node{Kind: graph.KindCustomer, X: p.X, Y: p.Y})
		minHops := 0.0
		for k, c := range best.Best() {
			nj := g.Node(c.ID)
			w := p.Dist(geom.Point{X: nj.X, Y: nj.Y})
			g.AddEdge(graph.Edge{U: c.ID, V: id, Weight: w})
			stats.TotalLinkLength += w
			h := st.Hops[c.ID] + 1
			if k == 0 || h < minHops {
				minHops = h
			}
		}
		st.Hops = append(st.Hops, minHops)
		if ix != nil {
			vals := [geom.IndexStats]float64{
				statHops:     minHops,
				statRootDist: p.Dist(rootPt),
				statDeg:      float64(g.Degree(id)),
			}
			ix.Add(int32(id), p, &vals)
		}
	}
	if ix != nil {
		stats.evals = ix.Evals()
	}
	return g, stats, nil
}

// GrowthStats reports aggregate facts about a GrowHOTContext run.
type GrowthStats struct {
	TermNames            []string
	TotalLinkLength      float64
	ConstraintViolations int
	// evals counts the candidates the attachment index evaluated, 0 on
	// the exhaustive scan; the package benchmarks report it.
	evals int
}

func termNames(terms []ObjectiveTerm) []string {
	out := make([]string, len(terms))
	for i, t := range terms {
		out[i] = t.Name()
	}
	return out
}
