package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/graph"
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
// and without a binding MaxDegree cap, across seeds, on a region whose
// root is off the unit square's center.
func TestFKPGridMatchesExhaustive(t *testing.T) {
	region := geom.Rect{MinX: 0.3, MinY: -0.8, MaxX: 1.5, MaxY: 1}
	for _, mode := range []CentralityMode{HopsToRoot, DistToRoot} {
		for _, maxDeg := range []int{0, 3} {
			for _, seed := range []int64{1, 2, 3} {
				cfg := FKPConfig{N: 220, Alpha: 8, Seed: seed, Centrality: mode, MaxDegree: maxDeg, Region: region}
				ref, err := fkp(context.Background(), cfg, true)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fkp(context.Background(), cfg, false)
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
		ref, _ := fkp(context.Background(), cfg, true)
		got, _ := fkp(context.Background(), cfg, false)
		checkSameGraph(t, "star-regime", ref, got)
	}
}

// TestFKPGridInfeasibleMatches pins the infeasible path: a MaxDegree so
// tight that an arrival finds every earlier node full must produce the
// same errs.ErrInfeasible, naming the same arrival, from both scans.
func TestFKPGridInfeasibleMatches(t *testing.T) {
	cfg := FKPConfig{N: 5, Alpha: 1, Seed: 1, MaxDegree: 1}
	_, errRef := fkp(context.Background(), cfg, true)
	_, errGrid := fkp(context.Background(), cfg, false)
	if errRef == nil || errGrid == nil {
		t.Fatalf("expected infeasible errors, got %v / %v", errRef, errGrid)
	}
	if !errors.Is(errRef, errs.ErrInfeasible) || !errors.Is(errGrid, errs.ErrInfeasible) {
		t.Fatalf("errors not ErrInfeasible: %v / %v", errRef, errGrid)
	}
	if errRef.Error() != errGrid.Error() {
		t.Fatalf("errors differ: %v / %v", errRef, errGrid)
	}
}

// TestGrowHOTGridMatchesExhaustive pins grid-index HOT growth
// bit-identical to the exhaustive scan across weight mixes, multi-link
// arrivals, caps, fixed arrival locations outside the region, and the
// constraint-violation fallback.
func TestGrowHOTGridMatchesExhaustive(t *testing.T) {
	cases := []struct {
		name string
		cfg  HOTConfig
	}{
		{"fkp-like", HOTConfig{
			N: 220, Seed: 1, Distance: 8, Centrality: 1,
		}},
		{"multilink", HOTConfig{
			N: 220, Seed: 2, LinksPerArrival: 3, Distance: 8, Centrality: 1,
		}},
		{"load-and-rootdist", HOTConfig{
			N: 220, Seed: 3, LinksPerArrival: 2, Distance: 2, Load: 0.5, RootDist: 1.5,
		}},
		{"centrality-only", HOTConfig{
			// No distance weight at all: geometric pruning contributes
			// nothing and the stat bounds carry the whole search.
			N: 160, Seed: 4, Centrality: 1, Load: 0.25,
		}},
		{"all-four-weights", HOTConfig{
			N: 220, Seed: 9, LinksPerArrival: 2, Distance: 3, Centrality: 0.5, Load: 0.2, RootDist: 0.7,
		}},
		{"degree-capped", HOTConfig{
			N: 220, Seed: 5, LinksPerArrival: 2, Distance: 8, Centrality: 1, MaxDegree: 4,
		}},
		{"length-capped-with-fallback", HOTConfig{
			// A tight length cap forces the uncapped fallback on many
			// arrivals, exercising the second search pass.
			N: 220, Seed: 6, Distance: 8, Centrality: 1, MaxLength: 0.05,
		}},
		{"both-caps", HOTConfig{
			N: 220, Seed: 7, LinksPerArrival: 2, Distance: 4, Centrality: 1, Load: 0.1,
			MaxDegree: 5, MaxLength: 0.3,
		}},
		// Port-capped rows: routers at the cap leave the index's live
		// view, which only the capped search walks.
		{"ports8-links1", HOTConfig{
			N: 600, Seed: 11, LinksPerArrival: 1, Distance: 8, Centrality: 1, MaxDegree: 8,
		}},
		{"ports3-links1-load", HOTConfig{
			N: 400, Seed: 12, LinksPerArrival: 1, Distance: 8, Centrality: 1, Load: 0.3, MaxDegree: 3,
		}},
		{"ports4-links2", HOTConfig{
			N: 400, Seed: 13, LinksPerArrival: 2, Distance: 8, Centrality: 1, MaxDegree: 4,
		}},
		{"ports3-links2-load-rootdist", HOTConfig{
			N: 400, Seed: 14, LinksPerArrival: 2, Distance: 2, Load: 0.3, RootDist: 1, MaxDegree: 3,
		}},
		{"ports4-links3-load", HOTConfig{
			N: 400, Seed: 15, LinksPerArrival: 3, Distance: 8, Centrality: 1, Load: 0.3, MaxDegree: 4,
		}},
		{"ports3-links3", HOTConfig{
			// links = ports: once the first ports+1 nodes fill up, every
			// node is born full and every capped search is empty.
			N: 300, Seed: 16, LinksPerArrival: 3, Distance: 8, Centrality: 1, MaxDegree: 3,
		}},
		{"ports2-links3-load", HOTConfig{
			// links > ports, with the degree slot tracked.
			N: 300, Seed: 17, LinksPerArrival: 3, Distance: 8, Centrality: 1, Load: 0.3, MaxDegree: 2,
		}},
		{"ports3-links2-maxlen", HOTConfig{
			N: 400, Seed: 18, LinksPerArrival: 2, Distance: 8, Centrality: 1, MaxDegree: 3, MaxLength: 0.06,
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
		N: 220, Seed: 8, Arrivals: arr, Distance: 8, Centrality: 1,
	}})

	for _, tc := range cases {
		cfg := tc.cfg
		ref, refStats, err := growHOT(context.Background(), cfg, true)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, gotStats, err := growHOT(context.Background(), cfg, false)
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

// TestGrowHOTAutoMatchesForced pins GrowHOTContext itself against the
// exhaustive reference scan at 1,500 nodes under a port cap.
func TestGrowHOTAutoMatchesForced(t *testing.T) {
	if testing.Short() {
		t.Skip("grows two 1500-node topologies")
	}
	base := HOTConfig{
		N: 1500, Seed: 10, LinksPerArrival: 2, Distance: 8, Centrality: 1, MaxDegree: 6,
	}
	auto, _, err := GrowHOTContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := growHOT(context.Background(), base, true)
	if err != nil {
		t.Fatal(err)
	}
	checkSameGraph(t, "auto", ref, auto)
}
