package stats_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/stats"
)

// The clustering and assortativity statistics are the registered
// "clustering" and "assortativity" metrics of internal/metricreg; these
// tests pin their values through the registry.
func scalar(t *testing.T, name string, g *graph.Graph) float64 {
	t.Helper()
	vals, err := metricreg.Evaluate(context.Background(), metricreg.NewSource(g, nil),
		[]metricreg.Selection{{Name: name}}, metricreg.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return vals[name].Scalar
}

func completeGraph(n int) *graph.Graph {
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

func TestClusteringCompleteGraph(t *testing.T) {
	if c := scalar(t, "clustering", completeGraph(6)); math.Abs(c-1) > 1e-12 {
		t.Fatalf("complete graph clustering = %v, want 1", c)
	}
}

func TestClusteringStar(t *testing.T) {
	if c := scalar(t, "clustering", star(8)); c != 0 {
		t.Fatalf("star clustering = %v, want 0", c)
	}
}

func TestClusteringTriangleWithPendant(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{})
	}
	g.AddEdge(graph.Edge{U: 0, V: 1})
	g.AddEdge(graph.Edge{U: 1, V: 2})
	g.AddEdge(graph.Edge{U: 2, V: 0})
	g.AddEdge(graph.Edge{U: 2, V: 3})
	// Node 0: 1; node 1: 1; node 2: deg 3 with 1 of 3 pairs linked = 1/3;
	// node 3: degree 1, excluded. Average = (1 + 1 + 1/3)/3.
	want := (1.0 + 1.0 + 1.0/3.0) / 3.0
	if c := scalar(t, "clustering", g); math.Abs(c-want) > 1e-12 {
		t.Fatalf("clustering = %v, want %v", c, want)
	}
}

func TestClusteringEmptyAndTiny(t *testing.T) {
	if c := scalar(t, "clustering", graph.New(0)); c != 0 {
		t.Fatal("empty graph clustering should be 0")
	}
	g := graph.New(2)
	g.AddNode(graph.Node{})
	g.AddNode(graph.Node{})
	g.AddEdge(graph.Edge{U: 0, V: 1})
	if c := scalar(t, "clustering", g); c != 0 {
		t.Fatal("single-edge graph clustering should be 0")
	}
}

func TestAssortativityStarNegative(t *testing.T) {
	// Stars are maximally disassortative: r = -1.
	r := scalar(t, "assortativity", star(10))
	if math.Abs(r+1) > 1e-9 {
		t.Fatalf("star assortativity = %v, want -1", r)
	}
}

func TestAssortativityRegularUndefined(t *testing.T) {
	// In a cycle all degrees equal: zero variance → report 0.
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		g.AddNode(graph.Node{})
	}
	for i := 0; i < 5; i++ {
		g.AddEdge(graph.Edge{U: i, V: (i + 1) % 5})
	}
	if r := scalar(t, "assortativity", g); r != 0 {
		t.Fatalf("regular graph assortativity = %v, want 0", r)
	}
}

func TestAssortativityBounds(t *testing.T) {
	g := completeGraph(5)
	g.AddNode(graph.Node{})
	g.AddEdge(graph.Edge{U: 0, V: 5})
	r := scalar(t, "assortativity", g)
	if r < -1-1e-9 || r > 1+1e-9 {
		t.Fatalf("assortativity %v out of [-1,1]", r)
	}
}

func TestAnalyzeDegreesStar(t *testing.T) {
	s := stats.AnalyzeDegrees(star(100))
	if s.MaxDegree != 99 {
		t.Fatalf("MaxDegree = %d", s.MaxDegree)
	}
	if math.Abs(s.TopDegreeFrac-1) > 1e-12 {
		t.Fatalf("TopDegreeFrac = %v, want 1 for a star", s.TopDegreeFrac)
	}
	wantMean := 2 * 99.0 / 100.0
	if math.Abs(s.MeanDegree-wantMean) > 1e-12 {
		t.Fatalf("MeanDegree = %v, want %v", s.MeanDegree, wantMean)
	}
}

func TestAnalyzeDegreesEmpty(t *testing.T) {
	s := stats.AnalyzeDegrees(graph.New(0))
	if s.MaxDegree != 0 || s.TopDegreeFrac != 0 {
		t.Fatalf("empty analysis = %+v", s)
	}
}
