// Package core implements the paper's primary contribution: topology
// generation as incremental (heuristic) optimization, in two layers.
//
// First, the concrete Fabrikant–Koutsoupias–Papadimitriou (FKP) model the
// paper's §3.1 leans on: nodes arrive uniformly at random in a region and
// each attaches to the existing node minimizing
//
//	alpha * dist(i, j) + centrality(j)
//
// a tradeoff between last-mile connection cost and the attachment
// target's "centrality" (its proximity, in hops, to the network core).
// Sweeping alpha moves the output through the claimed spectrum: a star
// for tiny alpha, power-law-degree trees for intermediate alpha, and
// exponential-degree, MST-like trees for large alpha.
//
// Second, a generalized HOT growth framework (hot.go) with pluggable
// objective terms and feasibility constraints, used for the ablations and
// for generating the router-port-constrained variants the paper's §2.1
// discusses.
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

// CentralityMode selects the centrality term used by the FKP objective.
type CentralityMode int

// Supported centrality definitions. The FKP paper uses hop distance to the
// root; Euclidean distance to the root is the natural geometric variant
// they also discuss. Both are exposed for the E1 ablation.
const (
	// HopsToRoot counts tree hops to node 0 (FKP's primary definition).
	HopsToRoot CentralityMode = iota
	// DistToRoot uses Euclidean distance from the candidate to node 0.
	DistToRoot
	// AvgHops uses the exact average hop distance from the candidate to
	// every current node, maintained incrementally (O(n) per arrival).
	AvgHops
)

// String names the centrality mode.
func (m CentralityMode) String() string {
	switch m {
	case HopsToRoot:
		return "hops-to-root"
	case DistToRoot:
		return "dist-to-root"
	case AvgHops:
		return "avg-hops"
	default:
		return fmt.Sprintf("CentralityMode(%d)", int(m))
	}
}

// FKPConfig parameterizes the FKP growth model.
type FKPConfig struct {
	N          int            // number of nodes (>= 1)
	Alpha      float64        // tradeoff weight on distance (>= 0)
	Seed       int64          // RNG seed
	Region     geom.Rect      // placement region; zero value = unit square
	Centrality CentralityMode // centrality definition
	MaxDegree  int            // router port cap; 0 = unconstrained
	RootAt     *geom.Point    // fixed root placement; nil = region center
}

func (c *FKPConfig) withDefaults() FKPConfig {
	out := *c
	if out.Region == (geom.Rect{}) {
		out.Region = geom.UnitSquare
	}
	return out
}

// Validate reports a configuration error (wrapping errs.ErrBadParam), or
// nil.
func (c *FKPConfig) Validate() error {
	if c.N < 1 {
		return errs.BadParamf("core: FKP N = %d, need >= 1", c.N)
	}
	if c.Alpha < 0 {
		return errs.BadParamf("core: FKP Alpha = %v, need >= 0", c.Alpha)
	}
	if c.MaxDegree < 0 {
		return errs.BadParamf("core: FKP MaxDegree = %d, need >= 0", c.MaxDegree)
	}
	return nil
}

// FKPContext grows a tree per the FKP model and returns it. Node 0 is
// the root. The result is always a spanning tree of the arrived nodes
// (each arrival adds exactly one edge), with edge weights set to
// Euclidean length. The growth loop checks ctx at every arrival and
// returns an errs.ErrCanceled-wrapping error when the context is done.
//
// Every FKP configuration is eligible for the grid index, which runs
// from gridMinNodes arrivals up; the grown tree is bit-identical to the
// exhaustive scan's either way.
func FKPContext(ctx context.Context, cfg FKPConfig) (*graph.Graph, error) {
	return fkp(ctx, cfg, gridMinNodes)
}

// fkp is FKPContext with the candidate scan exposed: the grid index runs
// when cfg.N >= gridMin, so 0 forces it and math.MaxInt forces the
// exhaustive reference scan the parity tests pin it against.
func fkp(ctx context.Context, cfg FKPConfig, gridMin int) (*graph.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	r := rng.New(c.Seed)
	g := graph.New(c.N)

	rootPt := c.Region.Center()
	if c.RootAt != nil {
		rootPt = *c.RootAt
	}
	g.AddNode(graph.Node{Kind: graph.KindCore, X: rootPt.X, Y: rootPt.Y})

	// Incremental centrality state.
	hops := make([]float64, 1, c.N) // tree hop count to root
	hops[0] = 0
	sumHops := make([]float64, 1, c.N) // for AvgHops: sum of hop dists to all current nodes
	sumHops[0] = 0

	// Grid index setup: the FKP objective is Alpha * distance + a
	// centrality stat the index tracks directly, so every configuration
	// is eligible. The stat weight is 1 except in AvgHops mode, where
	// the stored stat is the raw pairwise hop sum and the per-arrival
	// weight 1/i turns its regional minimums into valid bounds on
	// sumHops[j]/i.
	var track [geom.IndexStats]bool
	var statW [geom.IndexStats]float64
	centStat := statHops
	switch c.Centrality {
	case DistToRoot:
		centStat = statRootDist
	case AvgHops:
		centStat = statSumHops
	}
	track[centStat] = true
	var ix *geom.Index
	if c.N >= gridMin {
		ix = geom.NewIndex(c.Region.Union(geom.Bounds(rootPt, nil)), c.N, track)
		vals := [geom.IndexStats]float64{}
		ix.Add(0, rootPt, &vals)
	}

	// Shared by both search paths so the cost arithmetic compiles once
	// and the arg-min (ties to the smaller id, exactly the exhaustive
	// loop's first-wins rule) is bit-identical.
	var p geom.Point
	arrival := 0
	best := geom.NewCandList(1)
	eval := func(j int) {
		if c.MaxDegree > 0 && g.Degree(j) >= c.MaxDegree {
			return
		}
		nj := g.Node(j)
		d := p.Dist(geom.Point{X: nj.X, Y: nj.Y})
		var cent float64
		switch c.Centrality {
		case HopsToRoot:
			cent = hops[j]
		case DistToRoot:
			cent = geom.Point{X: nj.X, Y: nj.Y}.Dist(rootPt)
		case AvgHops:
			cent = sumHops[j] / float64(arrival)
		}
		best.Consider(j, c.Alpha*d+cent)
	}
	eval32 := func(j int32) { eval(int(j)) }
	noLen := math.Inf(1)

	for i := 1; i < c.N; i++ {
		if err := errs.Ctx(ctx); err != nil {
			return nil, fmt.Errorf("core: FKP at arrival %d: %w", i, err)
		}
		p = c.Region.RandomPoint(r)
		arrival = i
		best.Reset()
		if ix != nil {
			if c.Centrality == AvgHops {
				statW[statSumHops] = 1 / float64(i)
			} else {
				statW[centStat] = 1
			}
			ix.Search(p, c.Alpha, &statW, noLen, best, eval32)
		} else {
			for j := 0; j < i; j++ {
				eval(j)
			}
		}
		if best.Empty() {
			return nil, errs.Infeasiblef("core: no feasible attachment for node %d (MaxDegree=%d too tight)", i, c.MaxDegree)
		}
		bestJ := best.Best()[0].ID
		id := g.AddNode(graph.Node{Kind: graph.KindCustomer, X: p.X, Y: p.Y})
		w := p.Dist(geom.Point{X: g.Node(bestJ).X, Y: g.Node(bestJ).Y})
		g.AddEdge(graph.Edge{U: bestJ, V: id, Weight: w})

		hops = append(hops, hops[bestJ]+1)
		if c.Centrality == AvgHops {
			// New node's hop distance to existing node v is
			// hopdist(bestJ, v) + 1. Maintaining exact pairwise sums
			// incrementally requires the per-node vector; recompute the
			// new node's sum via BFS (O(n) amortized, acceptable).
			dist, _ := g.BFS(id)
			s := 0.0
			for v := 0; v < id; v++ {
				s += float64(dist[v])
				sumHops[v] += float64(dist[v])
			}
			sumHops = append(sumHops, s)
		} else {
			sumHops = append(sumHops, 0)
		}
		if ix != nil {
			vals := [geom.IndexStats]float64{
				statHops:     hops[id],
				statRootDist: p.Dist(rootPt),
				statSumHops:  sumHops[id],
			}
			ix.Add(int32(id), p, &vals)
		}
	}
	return g, nil
}

// AlphaRegime names the FKP parameter regimes from the original paper, so
// experiment code can request "the alpha that should produce X".
type AlphaRegime int

// The three regimes proved by Fabrikant et al.
const (
	RegimeStar        AlphaRegime = iota // alpha below ~sqrt(2): root dominates
	RegimePowerLaw                       // 4 <= alpha <= o(sqrt(n))
	RegimeExponential                    // alpha >= ~sqrt(n): distance dominates
)

// RegimeAlpha returns a representative alpha for the given regime at size n.
func RegimeAlpha(reg AlphaRegime, n int) float64 {
	switch reg {
	case RegimeStar:
		return 0.5
	case RegimePowerLaw:
		return 8
	default:
		return 4 * math.Sqrt(float64(n))
	}
}
