package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/stats"
)

func TestFKPValidate(t *testing.T) {
	bad := []FKPConfig{
		{N: 0, Alpha: 1},
		{N: 10, Alpha: -1},
		{N: 10, Alpha: 1, MaxDegree: -2},
		{N: 10, Alpha: math.NaN()},
		{N: 10, Alpha: 1, Centrality: CentralityMode(2)},
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

func TestFKPSmallAlphaIsStar(t *testing.T) {
	// Alpha below 1/sqrt(2): every node prefers the root regardless of
	// distance (max distance gain < centrality cost of leaving the root).
	g, err := FKPContext(context.Background(), FKPConfig{N: 500, Alpha: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(g, stats.AnalyzeDegrees(g)); got != ClassStar {
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
	region := geom.Rect{MinX: 0, MinY: 2, MaxX: 4, MaxY: 3}
	g, err := FKPContext(context.Background(), FKPConfig{N: 10, Alpha: 1, Seed: 9, Region: region})
	if err != nil {
		t.Fatal(err)
	}
	if c := region.Center(); g.Node(0).X != c.X || g.Node(0).Y != c.Y {
		t.Fatalf("root at (%v,%v), want the region's center %v", g.Node(0).X, g.Node(0).Y, c)
	}
	for i := 1; i < g.NumNodes(); i++ {
		if nd := g.Node(i); !region.Contains(geom.Point{X: nd.X, Y: nd.Y}) {
			t.Fatalf("node %d at (%v,%v) lies outside the region", i, nd.X, nd.Y)
		}
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
		N:          150,
		Seed:       11,
		Distance:   alpha,
		Centrality: 1,
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
	bad := map[string]HOTConfig{
		"no terms":          {N: 5},
		"zero weights":      {N: 5, Distance: 0, Load: 0},
		"negative links":    {N: 5, Distance: 1, LinksPerArrival: -1},
		"negative distance": {N: 5, Distance: -1, Centrality: 2},
		"negative weight":   {N: 5, Distance: 1, Centrality: -1},
		"negative load":     {N: 5, Distance: 1, Load: -0.5},
		"negative rootdist": {N: 5, Distance: 1, RootDist: -1},
		"NaN weight":        {N: 5, Distance: math.NaN()},
		"negative degree":   {N: 5, Distance: 1, MaxDegree: -1},
		"negative length":   {N: 5, Distance: 1, MaxLength: -0.5},
	}
	for name, cfg := range bad {
		_, _, err := GrowHOTContext(context.Background(), cfg)
		if !errors.Is(err, errs.ErrBadParam) {
			t.Fatalf("%s: err = %v, want ErrBadParam", name, err)
		}
	}
}

func TestGrowHOTMultiLink(t *testing.T) {
	g, _, err := GrowHOTContext(context.Background(), HOTConfig{
		N:               200,
		Seed:            12,
		Distance:        5,
		Centrality:      1,
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

// TestGrowHOTLinksDoNotSizeAllocations grows 10 nodes claiming 2^40
// links per arrival: every arrival links to every earlier node, which
// is K10, and the claim must not size an allocation.
func TestGrowHOTLinksDoNotSizeAllocations(t *testing.T) {
	cfg := HOTConfig{N: 10, Seed: 16, Distance: 1, Centrality: 1, LinksPerArrival: 1 << 40}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, _, err := GrowHOTContext(context.Background(), cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("growing 10 nodes allocated %d bytes", got)
	}
	if g.NumEdges() != 45 {
		t.Fatalf("edges = %d, want K10's 45", g.NumEdges())
	}
	for _, e := range g.Edges() {
		if e.U == e.V || g.Degree(e.U) != 9 {
			t.Fatalf("edge %d-%d: not K10", e.U, e.V)
		}
	}
}

func TestGrowHOTDegreeConstraint(t *testing.T) {
	g, st, err := GrowHOTContext(context.Background(), HOTConfig{
		N:          300,
		Seed:       13,
		Centrality: 1, // prefers root always
		MaxDegree:  4,
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
	// A length cap no link meets (0 would mean no cap): every arrival
	// falls back to the uncapped search.
	g, st, err := GrowHOTContext(context.Background(), HOTConfig{
		N:         50,
		Seed:      14,
		Distance:  1,
		MaxLength: 1e-9,
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
		N:          200,
		Seed:       15,
		Centrality: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	spread, _, err := GrowHOTContext(context.Background(), HOTConfig{
		N:          200,
		Seed:       15,
		Centrality: 1,
		Load:       10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if spread.MaxDegree() >= star.MaxDegree() {
		t.Fatalf("load term did not reduce hub degree: %d vs %d",
			spread.MaxDegree(), star.MaxDegree())
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
	if got := Classify(g, stats.AnalyzeDegrees(g)); got != ClassStar {
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
