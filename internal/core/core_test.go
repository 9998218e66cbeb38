package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/stats"
)

func TestFKPValidate(t *testing.T) {
	bad := []FKPConfig{
		{N: 0, Alpha: 1},
		{N: 10, Alpha: -1},
		{N: 10, Alpha: 1, MaxDegree: -2},
	}
	for i, cfg := range bad {
		if _, err := FKPContext(context.Background(), cfg); err == nil {
			t.Fatalf("config %d should have failed validation", i)
		}
	}
}

func TestFKPProducesSpanningTree(t *testing.T) {
	for _, mode := range []CentralityMode{HopsToRoot, DistToRoot} {
		g, err := FKPContext(context.Background(), FKPConfig{N: 300, Alpha: 10, Seed: 1, Centrality: mode})
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsTree() {
			t.Fatalf("FKP output (mode %v) is not a tree", mode)
		}
		if g.NumNodes() != 300 {
			t.Fatalf("got %d nodes", g.NumNodes())
		}
	}
}

func TestFKPAvgHopsMode(t *testing.T) {
	g, err := FKPContext(context.Background(), FKPConfig{N: 120, Alpha: 5, Seed: 2, Centrality: AvgHops})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTree() {
		t.Fatal("AvgHops FKP output is not a tree")
	}
}

func TestFKPSmallAlphaIsStar(t *testing.T) {
	// Alpha below 1/sqrt(2): every node prefers the root regardless of
	// distance (max distance gain < centrality cost of leaving the root).
	g, err := FKPContext(context.Background(), FKPConfig{N: 500, Alpha: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(g); got != ClassStar {
		t.Fatalf("alpha=0.3 classified as %v, want star", got)
	}
	if g.Degree(0) != 499 {
		t.Fatalf("root degree = %d, want 499 (perfect star)", g.Degree(0))
	}
}

func TestFKPLargeAlphaIsNotStar(t *testing.T) {
	n := 1000
	g, err := FKPContext(context.Background(), FKPConfig{N: n, Alpha: RegimeAlpha(RegimeExponential, n), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ds := stats.AnalyzeDegrees(g)
	if ds.TopDegreeFrac > 0.1 {
		t.Fatalf("large-alpha FKP still hub-dominated: top frac %v", ds.TopDegreeFrac)
	}
	if ds.MaxDegree > 20 {
		t.Fatalf("large-alpha FKP max degree = %d, expected small", ds.MaxDegree)
	}
}

func TestFKPIntermediateAlphaSkewed(t *testing.T) {
	// Intermediate regime: a few big hubs, many leaves — max degree far
	// above the large-alpha regime but not a star.
	n := 1500
	gMid, err := FKPContext(context.Background(), FKPConfig{N: n, Alpha: RegimeAlpha(RegimePowerLaw, n), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gBig, err := FKPContext(context.Background(), FKPConfig{N: n, Alpha: RegimeAlpha(RegimeExponential, n), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	midMax := gMid.MaxDegree()
	bigMax := gBig.MaxDegree()
	if midMax <= 2*bigMax {
		t.Fatalf("intermediate alpha max degree %d not >> exponential regime %d", midMax, bigMax)
	}
	if frac := float64(midMax) / float64(n-1); frac >= StarThreshold {
		t.Fatalf("intermediate alpha degenerated into a star (frac %v)", frac)
	}
}

func TestFKPDeterministic(t *testing.T) {
	a, err := FKPContext(context.Background(), FKPConfig{N: 200, Alpha: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FKPContext(context.Background(), FKPConfig{N: 200, Alpha: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed, different edge count")
	}
	for i := 0; i < a.NumEdges(); i++ {
		ea, eb := a.Edge(i), b.Edge(i)
		if ea.U != eb.U || ea.V != eb.V || ea.Weight != eb.Weight {
			t.Fatalf("edge %d differs between identical runs", i)
		}
	}
}

func TestFKPMaxDegreeRespected(t *testing.T) {
	g, err := FKPContext(context.Background(), FKPConfig{N: 400, Alpha: 0.3, Seed: 8, MaxDegree: 16})
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() > 16 {
		t.Fatalf("max degree %d exceeds cap 16", g.MaxDegree())
	}
	if !g.IsTree() {
		t.Fatal("degree-capped FKP should still be a tree")
	}
}

func TestFKPRootPlacement(t *testing.T) {
	at := geom.Point{X: 0.1, Y: 0.9}
	g, err := FKPContext(context.Background(), FKPConfig{N: 10, Alpha: 1, Seed: 9, RootAt: &at})
	if err != nil {
		t.Fatal(err)
	}
	if g.Node(0).X != 0.1 || g.Node(0).Y != 0.9 {
		t.Fatal("RootAt ignored")
	}
}

func TestFKPSingleNode(t *testing.T) {
	g, err := FKPContext(context.Background(), FKPConfig{N: 1, Alpha: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Fatal("N=1 should give a single node, no edges")
	}
}

func TestFKPEdgeWeightsEuclidean(t *testing.T) {
	g, err := FKPContext(context.Background(), FKPConfig{N: 50, Alpha: 5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		u, v := g.Node(e.U), g.Node(e.V)
		want := geom.Point{X: u.X, Y: u.Y}.Dist(geom.Point{X: v.X, Y: v.Y})
		if math.Abs(e.Weight-want) > 1e-12 {
			t.Fatalf("edge weight %v, want Euclidean %v", e.Weight, want)
		}
	}
}

func TestGrowHOTEquivalentToFKP(t *testing.T) {
	// With the FKP-equivalent configuration, GrowHOT must produce the
	// identical topology for the same seed.
	alpha := 7.0
	gf, err := FKPContext(context.Background(), FKPConfig{N: 150, Alpha: alpha, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gh, _, err := GrowHOTContext(context.Background(), HOTConfig{
		N:     150,
		Seed:  11,
		Terms: []ObjectiveTerm{DistanceTerm{alpha}, CentralityTerm{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gf.NumEdges() != gh.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", gf.NumEdges(), gh.NumEdges())
	}
	for i := 0; i < gf.NumEdges(); i++ {
		a, b := gf.Edge(i), gh.Edge(i)
		if a.U != b.U || a.V != b.V {
			t.Fatalf("edge %d: FKP (%d,%d) vs HOT (%d,%d)", i, a.U, a.V, b.U, b.V)
		}
	}
}

func TestGrowHOTValidate(t *testing.T) {
	if _, _, err := GrowHOTContext(context.Background(), HOTConfig{N: 0}); err == nil {
		t.Fatal("N=0 should fail")
	}
	if _, _, err := GrowHOTContext(context.Background(), HOTConfig{N: 5}); err == nil {
		t.Fatal("no terms should fail")
	}
	if _, _, err := GrowHOTContext(context.Background(), HOTConfig{N: 5, Terms: []ObjectiveTerm{DistanceTerm{1}}, LinksPerArrival: -1}); err == nil {
		t.Fatal("negative links should fail")
	}
}

func TestGrowHOTMultiLink(t *testing.T) {
	g, _, err := GrowHOTContext(context.Background(), HOTConfig{
		N:               200,
		Seed:            12,
		Terms:           []ObjectiveTerm{DistanceTerm{5}, CentralityTerm{1}},
		LinksPerArrival: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// First arrival can only make 1 link (one node exists); the rest 2.
	wantEdges := 1 + (200-2)*2
	if g.NumEdges() != wantEdges {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	if g.IsTree() {
		t.Fatal("multi-link growth should not be a tree")
	}
	if !g.IsConnected() {
		t.Fatal("growth output must be connected")
	}
}

func TestGrowHOTDegreeConstraint(t *testing.T) {
	g, st, err := GrowHOTContext(context.Background(), HOTConfig{
		N:           300,
		Seed:        13,
		Terms:       []ObjectiveTerm{CentralityTerm{1}}, // prefers root always
		Constraints: []Constraint{MaxDegreeConstraint{Max: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() > 4 {
		t.Fatalf("constraint violated: max degree %d", g.MaxDegree())
	}
	if st.ConstraintViolations != 0 {
		t.Fatalf("unexpected fallback arrivals: %d", st.ConstraintViolations)
	}
}

func TestGrowHOTInfeasibleFallsBack(t *testing.T) {
	// Impossible length cap: every arrival falls back to unconstrained.
	g, st, err := GrowHOTContext(context.Background(), HOTConfig{
		N:           50,
		Seed:        14,
		Terms:       []ObjectiveTerm{DistanceTerm{1}},
		Constraints: []Constraint{MaxLengthConstraint{Max: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("fallback must keep the graph connected")
	}
	if st.ConstraintViolations != 49 {
		t.Fatalf("violations = %d, want 49", st.ConstraintViolations)
	}
}

func TestGrowHOTLoadTermSpreadsDegree(t *testing.T) {
	// Pure centrality gives a star; adding load must spread attachments.
	star, _, err := GrowHOTContext(context.Background(), HOTConfig{
		N:     200,
		Seed:  15,
		Terms: []ObjectiveTerm{CentralityTerm{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	spread, _, err := GrowHOTContext(context.Background(), HOTConfig{
		N:     200,
		Seed:  15,
		Terms: []ObjectiveTerm{CentralityTerm{1}, LoadTerm{10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if spread.MaxDegree() >= star.MaxDegree() {
		t.Fatalf("load term did not reduce hub degree: %d vs %d",
			spread.MaxDegree(), star.MaxDegree())
	}
}

func TestObjectiveTermNames(t *testing.T) {
	terms := []ObjectiveTerm{DistanceTerm{1}, CentralityTerm{1}, LoadTerm{1}, RootDistTerm{1}}
	seen := map[string]bool{}
	for _, tm := range terms {
		n := tm.Name()
		if n == "" || seen[n] {
			t.Fatalf("bad/duplicate term name %q", n)
		}
		seen[n] = true
	}
	if (MaxDegreeConstraint{3}).Name() == "" || (MaxLengthConstraint{1}).Name() == "" {
		t.Fatal("constraint names empty")
	}
}

func TestClassifyStarDirect(t *testing.T) {
	g := graph.New(10)
	for i := 0; i < 10; i++ {
		g.AddNode(graph.Node{})
	}
	for i := 1; i < 10; i++ {
		g.AddEdge(graph.Edge{U: 0, V: i})
	}
	if got := Classify(g); got != ClassStar {
		t.Fatalf("star classified as %v", got)
	}
}

func TestClassifyStrings(t *testing.T) {
	for _, c := range []TopologyClass{ClassOther, ClassStar, ClassPowerLawTree, ClassExponentialTree} {
		if c.String() == "" {
			t.Fatalf("class %d has empty string", c)
		}
	}
	if CentralityMode(99).String() == "" {
		t.Fatal("unknown centrality mode should still print")
	}
}

func TestRegimeAlphaOrdering(t *testing.T) {
	n := 1000
	a1 := RegimeAlpha(RegimeStar, n)
	a2 := RegimeAlpha(RegimePowerLaw, n)
	a3 := RegimeAlpha(RegimeExponential, n)
	if !(a1 < a2 && a2 < a3) {
		t.Fatalf("regime alphas not ordered: %v %v %v", a1, a2, a3)
	}
}
