package metrics

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/params"
	"repro/internal/rng"
)

// eval evaluates one registry metric on g as a single-metric set, the
// path every caller of a [30]-style metric takes.
func eval(t *testing.T, g *graph.Graph, seed int64, name string, p params.Params) metricreg.Value {
	t.Helper()
	vals, err := metricreg.Evaluate(context.Background(), metricreg.NewSource(g, nil),
		[]metricreg.Selection{{Name: name, Params: p}}, metricreg.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return vals[name]
}

func path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{})
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.Edge{U: i, V: i + 1, Weight: 1})
	}
	return g
}

func star(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{})
	}
	for i := 1; i < n; i++ {
		g.AddEdge(graph.Edge{U: 0, V: i, Weight: 1})
	}
	return g
}

func complete(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{})
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(graph.Edge{U: u, V: v, Weight: 1})
		}
	}
	return g
}

func randomGraph(seed int64, n int, p float64) *graph.Graph {
	r := rng.New(seed)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{})
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.AddEdge(graph.Edge{U: u, V: v, Weight: 1})
			}
		}
	}
	return g
}

func TestExpansionCompleteReachesAllAtOneHop(t *testing.T) {
	exp := eval(t, complete(20), 1, "expansion", params.Params{"maxh": 2, "sources": 0}).Series
	if math.Abs(exp[1]-1) > 1e-12 {
		t.Fatalf("complete graph expansion at h=1 is %v, want 1", exp[1])
	}
}

func TestExpansionPathSlow(t *testing.T) {
	n := 100
	exp := eval(t, path(n), 1, "expansion", params.Params{"maxh": 3, "sources": 0}).Series
	// On a long path, a ball of radius 3 holds at most 7 of 100 nodes.
	if exp[3] > 7.0/float64(n)+1e-9 {
		t.Fatalf("path expansion at h=3 is %v, too high", exp[3])
	}
	// Monotone in h.
	for h := 1; h < len(exp); h++ {
		if exp[h] < exp[h-1] {
			t.Fatal("expansion must be non-decreasing in h")
		}
	}
}

func TestExpansionStarFast(t *testing.T) {
	exp := eval(t, star(50), 1, "expansion", params.Params{"maxh": 2, "sources": 0}).Series
	if math.Abs(exp[2]-1) > 1e-12 {
		t.Fatalf("star expansion at h=2 = %v, want 1", exp[2])
	}
}

func TestExpansionEmpty(t *testing.T) {
	if eval(t, graph.New(0), 1, "expansion", params.Params{"maxh": 3, "sources": 0}).Series != nil {
		t.Fatal("empty graph expansion should be nil")
	}
}

func TestResilienceOrdering(t *testing.T) {
	// A complete graph must be more resilient than a star of the same n.
	rc := eval(t, complete(40), 7, "resilience", params.Params{"steps": 8, "trials": 3}).Scalar
	rs := eval(t, star(40), 7, "resilience", params.Params{"steps": 8, "trials": 3}).Scalar
	if rc <= rs {
		t.Fatalf("complete resilience %v should exceed star %v", rc, rs)
	}
	if rc <= 0 || rc > 1 {
		t.Fatalf("resilience %v out of (0,1]", rc)
	}
}

func TestResilienceStarVsPath(t *testing.T) {
	// A star dies when the hub dies; a path degrades more gradually in
	// expectation under random removal — but early hub loss is only 1/n
	// likely, so star should actually beat path. Just check both in range.
	rs := eval(t, star(30), 3, "resilience", params.Params{"steps": 8, "trials": 5}).Scalar
	rp := eval(t, path(30), 3, "resilience", params.Params{"steps": 8, "trials": 5}).Scalar
	for _, v := range []float64{rs, rp} {
		if v <= 0 || v > 1 {
			t.Fatalf("resilience %v out of range", v)
		}
	}
}

func TestDistortionTreeIsOne(t *testing.T) {
	if d := eval(t, path(30), 1, "distortion", params.Params{"sample": 0}).Scalar; math.Abs(d-1) > 1e-12 {
		t.Fatalf("tree distortion = %v, want 1", d)
	}
	if d := eval(t, star(30), 1, "distortion", params.Params{"sample": 0}).Scalar; math.Abs(d-1) > 1e-12 {
		t.Fatalf("star distortion = %v, want 1", d)
	}
}

func TestDistortionMeshAboveOne(t *testing.T) {
	d := eval(t, complete(15), 1, "distortion", params.Params{"sample": 0}).Scalar
	if d <= 1 {
		t.Fatalf("complete graph distortion = %v, want > 1", d)
	}
}

func TestDistortionEmpty(t *testing.T) {
	if eval(t, graph.New(0), 1, "distortion", params.Params{"sample": 0}).Scalar != 0 {
		t.Fatal("empty graph distortion should be 0")
	}
}

func TestHierarchyDepthStarVsPath(t *testing.T) {
	hs := eval(t, star(64), 0, "hierarchy-depth", params.Params{"root": 0}).Scalar
	hp := eval(t, path(64), 0, "hierarchy-depth", params.Params{"root": 0}).Scalar
	if hs >= hp {
		t.Fatalf("star depth %v should be below path depth %v", hs, hp)
	}
	// Star rooted at hub: all depths 1 → 1/log2(64) = 1/6.
	if math.Abs(hs-1.0/6.0) > 1e-9 {
		t.Fatalf("star hierarchy depth = %v, want %v", hs, 1.0/6.0)
	}
}

func TestHierarchyDepthAutoRoot(t *testing.T) {
	// With root=-1 the max-betweenness node is used; for a path that is
	// the middle, halving the mean depth vs rooting at an end.
	h := eval(t, path(33), 0, "hierarchy-depth", params.Params{"root": -1}).Scalar
	hEnd := eval(t, path(33), 0, "hierarchy-depth", params.Params{"root": 0}).Scalar
	if h >= hEnd {
		t.Fatalf("auto-rooted depth %v should be below end-rooted %v", h, hEnd)
	}
}

func TestHierarchyDepthTrivial(t *testing.T) {
	if eval(t, graph.New(0), 0, "hierarchy-depth", params.Params{"root": -1}).Scalar != 0 {
		t.Fatal("empty hierarchy depth should be 0")
	}
	g := graph.New(1)
	g.AddNode(graph.Node{})
	if eval(t, g, 0, "hierarchy-depth", params.Params{"root": 0}).Scalar != 0 {
		t.Fatal("single-node hierarchy depth should be 0")
	}
}

func TestSpectralGapOrdering(t *testing.T) {
	// Complete graph has the largest possible gap; a path has a tiny one.
	gc := eval(t, complete(20), 0, "spectral-gap", params.Params{"iters": 300}).Scalar
	gp := eval(t, path(20), 0, "spectral-gap", params.Params{"iters": 300}).Scalar
	if gc <= gp {
		t.Fatalf("complete gap %v should exceed path gap %v", gc, gp)
	}
	if gp <= 0 {
		t.Fatalf("path gap %v should be positive", gp)
	}
}

func TestSpectralGapCompleteKnown(t *testing.T) {
	// Normalized Laplacian of K_n has lambda_2 = n/(n-1).
	n := 12
	got := eval(t, complete(n), 0, "spectral-gap", params.Params{"iters": 500}).Scalar
	want := float64(n) / float64(n-1)
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("K_%d spectral gap = %v, want ~%v", n, got, want)
	}
}

func TestSpectralGapDisconnected(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{})
	}
	g.AddEdge(graph.Edge{U: 0, V: 1})
	g.AddEdge(graph.Edge{U: 2, V: 3})
	if eval(t, g, 0, "spectral-gap", params.Params{"iters": 100}).Scalar != 0 {
		t.Fatal("disconnected graph should report zero gap")
	}
}

func TestComputeProfileSane(t *testing.T) {
	g := randomGraph(5, 120, 0.05)
	p, err := ProfileContext(context.Background(), g, nil, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes != 120 {
		t.Fatalf("profile nodes = %d", p.Nodes)
	}
	if p.ExpansionAt3 < 0 || p.ExpansionAt3 > 1 {
		t.Fatalf("expansion@3 = %v", p.ExpansionAt3)
	}
	if p.Resilience < 0 || p.Resilience > 1 {
		t.Fatalf("resilience = %v", p.Resilience)
	}
}

func TestProfileDeterministic(t *testing.T) {
	g := randomGraph(6, 80, 0.08)
	a, errA := ProfileContext(context.Background(), g, nil, 3, 0)
	b, errB := ProfileContext(context.Background(), g, nil, 3, 0)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a != b {
		t.Fatalf("profile not deterministic: %+v vs %+v", a, b)
	}
}
