// Package core implements the paper's primary contribution: topology
// generation as incremental (heuristic) optimization.
//
// Every model here grows on one loop (hot.go): nodes arrive in a region,
// and each attaches to the existing nodes that minimize a weighted cost
// of cable length, hop distance to the root, candidate degree and
// candidate distance to the root, subject to a router port cap and a
// link reach cap. The weights and caps are plain numbers, used for the
// ablations and for the router-port-constrained variants the paper's
// §2.1 discusses.
//
// The Fabrikant–Koutsoupias–Papadimitriou (FKP) model the paper's §3.1
// leans on is that loop with one link per arrival and the cost
//
//	alpha * dist(i, j) + centrality(j)
//
// a tradeoff between last-mile connection cost and the attachment
// target's "centrality" (its proximity, in hops, to the network core).
// Sweeping alpha moves the output through the claimed spectrum: a star
// for tiny alpha, power-law-degree trees for intermediate alpha, and
// exponential-degree, MST-like trees for large alpha.
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/graph"
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
)

// String names the centrality mode.
func (m CentralityMode) String() string {
	switch m {
	case HopsToRoot:
		return "hops-to-root"
	case DistToRoot:
		return "dist-to-root"
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
}

// Validate reports a configuration error (wrapping errs.ErrBadParam), or
// nil.
func (c *FKPConfig) Validate() error {
	if c.N < 1 {
		return errs.BadParamf("core: FKP N = %d, need >= 1", c.N)
	}
	if !(c.Alpha >= 0) {
		return errs.BadParamf("core: FKP Alpha = %v, need >= 0", c.Alpha)
	}
	if c.Centrality != HopsToRoot && c.Centrality != DistToRoot {
		return errs.BadParamf("core: FKP Centrality = %v, need hops-to-root or dist-to-root", c.Centrality)
	}
	if c.MaxDegree < 0 {
		return errs.BadParamf("core: FKP MaxDegree = %d, need >= 0", c.MaxDegree)
	}
	return nil
}

// FKPContext grows a tree per the FKP model and returns it. Node 0 is
// the root at the region's center. The result is always a spanning tree
// of the arrived nodes (each arrival adds exactly one edge), with edge
// weights set to Euclidean length. It is GrowHOTContext with one link
// per arrival, Distance = Alpha and unit weight on the chosen
// centrality, so it checks ctx at every arrival and returns an
// errs.ErrCanceled-wrapping error when the context is done. Unlike HOT
// growth it never ignores the port cap: a MaxDegree that leaves an
// arrival no feasible candidate is an errs.ErrInfeasible error.
func FKPContext(ctx context.Context, cfg FKPConfig) (*graph.Graph, error) {
	return fkp(ctx, cfg, false)
}

// fkp is FKPContext with growHOT's candidate scan exposed (exhaustive).
func fkp(ctx context.Context, cfg FKPConfig, exhaustive bool) (*graph.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A tree on two or more nodes has at least two leaves, each of degree
	// 1, so an arrival finds a free port unless every node may hold only
	// one link; then arrival 2 finds nodes 0 and 1 both full.
	if cfg.MaxDegree == 1 && cfg.N >= 3 {
		return nil, errs.Infeasiblef("core: no feasible attachment for node 2 (MaxDegree=1 too tight)")
	}
	h := HOTConfig{N: cfg.N, Seed: cfg.Seed, Region: cfg.Region, Distance: cfg.Alpha, MaxDegree: cfg.MaxDegree, LinksPerArrival: 1}
	if cfg.Centrality == DistToRoot {
		h.RootDist = 1
	} else {
		h.Centrality = 1
	}
	g, _, err := growHOT(ctx, h, exhaustive)
	return g, err
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
