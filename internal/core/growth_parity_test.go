package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/graph"
)

// The gridMin values that force each candidate scan of fkp and growHOT.
const (
	forceGrid       = 0
	forceExhaustive = math.MaxInt
)

// checkSameGraph pins two grown graphs bit-for-bit: node coordinates and
// kinds, and the full edge list in insertion order with exact float
// weights. This is the identity the grid index must preserve — same RNG
// stream, same trees, same tie-breaks.
func checkSameGraph(t *testing.T, label string, ref, got *graph.Graph) {
	t.Helper()
	if ref.NumNodes() != got.NumNodes() || ref.NumEdges() != got.NumEdges() {
		t.Fatalf("%s: shape %d nodes / %d edges, reference %d / %d",
			label, got.NumNodes(), got.NumEdges(), ref.NumNodes(), ref.NumEdges())
	}
	for i := 0; i < ref.NumNodes(); i++ {
		a, b := ref.Node(i), got.Node(i)
		if a.X != b.X || a.Y != b.Y || a.Kind != b.Kind {
			t.Fatalf("%s: node %d = (%v,%v), reference (%v,%v)", label, i, b.X, b.Y, a.X, a.Y)
		}
	}
	for i := 0; i < ref.NumEdges(); i++ {
		a, b := ref.Edge(i), got.Edge(i)
		if a.U != b.U || a.V != b.V || a.Weight != b.Weight {
			t.Fatalf("%s: edge %d = (%d,%d,%v), reference (%d,%d,%v)",
				label, i, b.U, b.V, b.Weight, a.U, a.V, a.Weight)
		}
	}
}

// TestFKPGridMatchesExhaustive pins the grid-index FKP growth
// bit-identical to the exhaustive scan for every centrality mode, with
// and without a binding MaxDegree cap, across seeds. N is far below the
// gridMinNodes threshold, so the forced gridMin values genuinely select the
// two implementations.
func TestFKPGridMatchesExhaustive(t *testing.T) {
	root := geom.Point{X: 0.9, Y: 0.1}
	for _, mode := range []CentralityMode{HopsToRoot, DistToRoot, AvgHops} {
		for _, maxDeg := range []int{0, 3} {
			for _, seed := range []int64{1, 2, 3} {
				cfg := FKPConfig{N: 220, Alpha: 8, Seed: seed, Centrality: mode, MaxDegree: maxDeg, RootAt: &root}
				ref, err := fkp(context.Background(), cfg, forceExhaustive)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fkp(context.Background(), cfg, forceGrid)
				if err != nil {
					t.Fatal(err)
				}
				label := mode.String()
				checkSameGraph(t, label, ref, got)
			}
		}
	}
	// The star regime (tiny alpha): centrality dominates distance, the
	// worst case for purely geometric pruning — the stale-min stat
	// bounds must keep the result identical.
	for _, alpha := range []float64{0.1, 0.5} {
		cfg := FKPConfig{N: 220, Alpha: alpha, Seed: 5}
		ref, _ := fkp(context.Background(), cfg, forceExhaustive)
		got, _ := fkp(context.Background(), cfg, forceGrid)
		checkSameGraph(t, "star-regime", ref, got)
	}
}

// TestFKPGridInfeasibleMatches pins the infeasible path: a MaxDegree so
// tight no candidate is ever feasible must produce the same
// errs.ErrInfeasible from both scan implementations.
func TestFKPGridInfeasibleMatches(t *testing.T) {
	cfg := FKPConfig{N: 5, Alpha: 1, Seed: 1, MaxDegree: 1}
	_, errRef := fkp(context.Background(), cfg, forceExhaustive)
	_, errGrid := fkp(context.Background(), cfg, forceGrid)
	if errRef == nil || errGrid == nil {
		t.Fatalf("expected infeasible errors, got %v / %v", errRef, errGrid)
	}
	if !errors.Is(errRef, errs.ErrInfeasible) || !errors.Is(errGrid, errs.ErrInfeasible) {
		t.Fatalf("errors not ErrInfeasible: %v / %v", errRef, errGrid)
	}
}

// TestGrowHOTGridMatchesExhaustive pins grid-index HOT growth
// bit-identical to the exhaustive scan across term mixes, multi-link
// arrivals, constraints, fixed arrival locations outside the region, and
// the constraint-violation fallback.
func TestGrowHOTGridMatchesExhaustive(t *testing.T) {
	cases := []struct {
		name string
		cfg  HOTConfig
	}{
		{"fkp-like", HOTConfig{
			N: 220, Seed: 1,
			Terms: []ObjectiveTerm{DistanceTerm{8}, CentralityTerm{1}},
		}},
		{"multilink", HOTConfig{
			N: 220, Seed: 2, LinksPerArrival: 3,
			Terms: []ObjectiveTerm{DistanceTerm{8}, CentralityTerm{1}},
		}},
		{"load-and-rootdist", HOTConfig{
			N: 220, Seed: 3, LinksPerArrival: 2,
			Terms: []ObjectiveTerm{DistanceTerm{2}, LoadTerm{0.5}, RootDistTerm{1.5}},
		}},
		{"centrality-only", HOTConfig{
			// No distance term at all: geometric pruning contributes
			// nothing and the stat bounds carry the whole search.
			N: 160, Seed: 4,
			Terms: []ObjectiveTerm{CentralityTerm{1}, LoadTerm{0.25}},
		}},
		{"degree-capped", HOTConfig{
			N: 220, Seed: 5, LinksPerArrival: 2,
			Terms:       []ObjectiveTerm{DistanceTerm{8}, CentralityTerm{1}},
			Constraints: []Constraint{MaxDegreeConstraint{4}},
		}},
		{"length-capped-with-fallback", HOTConfig{
			// A tight length cap forces the unconstrained fallback on
			// many arrivals, exercising the second search pass.
			N: 220, Seed: 6,
			Terms:       []ObjectiveTerm{DistanceTerm{8}, CentralityTerm{1}},
			Constraints: []Constraint{MaxLengthConstraint{0.05}},
		}},
		{"both-constraints", HOTConfig{
			N: 220, Seed: 7, LinksPerArrival: 2,
			Terms:       []ObjectiveTerm{DistanceTerm{4}, CentralityTerm{1}, LoadTerm{0.1}},
			Constraints: []Constraint{MaxDegreeConstraint{5}, MaxLengthConstraint{0.3}},
		}},
	}
	// One case with fixed arrivals straddling the region boundary: the
	// index's bounding rect must cover them.
	arr := make([]geom.Point, 219)
	for i := range arr {
		arr[i] = geom.Point{X: -0.5 + 2*float64(i)/float64(len(arr)), Y: float64(i%7) / 4}
	}
	cases = append(cases, struct {
		name string
		cfg  HOTConfig
	}{"fixed-arrivals", HOTConfig{
		N: 220, Seed: 8, Arrivals: arr,
		Terms: []ObjectiveTerm{DistanceTerm{8}, CentralityTerm{1}},
	}})

	for _, tc := range cases {
		cfg := tc.cfg
		ref, refStats, err := growHOT(context.Background(), cfg, forceExhaustive)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, gotStats, err := growHOT(context.Background(), cfg, forceGrid)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkSameGraph(t, tc.name, ref, got)
		if refStats.TotalLinkLength != gotStats.TotalLinkLength ||
			refStats.ConstraintViolations != gotStats.ConstraintViolations {
			t.Fatalf("%s: stats (%v, %d), reference (%v, %d)", tc.name,
				gotStats.TotalLinkLength, gotStats.ConstraintViolations,
				refStats.TotalLinkLength, refStats.ConstraintViolations)
		}
	}
}

// TestGrowHOTGridIneligibleFallsBack pins the eligibility gate: a custom
// term the index cannot lower-bound must silently keep the exhaustive
// scan (identical output) even when the grid is forced, as must a negative
// weight, which breaks the cost monotonicity the bounds rely on.
func TestGrowHOTGridIneligibleFallsBack(t *testing.T) {
	for _, terms := range [][]ObjectiveTerm{
		{DistanceTerm{8}, customTerm{}},
		{DistanceTerm{8}, CentralityTerm{-1}},
	} {
		cfg := HOTConfig{N: 120, Seed: 9, Terms: terms}
		ref, _, err := growHOT(context.Background(), cfg, forceExhaustive)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := growHOT(context.Background(), cfg, forceGrid)
		if err != nil {
			t.Fatal(err)
		}
		checkSameGraph(t, "ineligible", ref, got)
	}
}

type customTerm struct{}

func (customTerm) Cost(s *GrowthState, p geom.Point, j int) float64 {
	// Deliberately not expressible as a tracked stat: depends on parity.
	return float64(j % 2)
}
func (customTerm) Name() string { return "custom" }

// TestGrowHOTAutoMatchesForced pins GrowHOTContext's own scan choice at
// a size above gridMinNodes against both forced scans — the three-way
// bit-identity users actually rely on.
func TestGrowHOTAutoMatchesForced(t *testing.T) {
	if testing.Short() {
		t.Skip("grows three 1500-node topologies")
	}
	base := HOTConfig{
		N: 1500, Seed: 10, LinksPerArrival: 2,
		Terms:       []ObjectiveTerm{DistanceTerm{8}, CentralityTerm{1}},
		Constraints: []Constraint{MaxDegreeConstraint{6}},
	}
	run := func(gridMin int) *graph.Graph {
		g, _, err := growHOT(context.Background(), base, gridMin)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	auto, _, err := GrowHOTContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	ref := run(forceExhaustive)
	checkSameGraph(t, "auto", ref, auto)
	checkSameGraph(t, "grid", ref, run(forceGrid))
}
