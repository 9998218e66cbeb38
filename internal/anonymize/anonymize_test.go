package anonymize

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func sample(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbertContext(context.Background(), 300, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		g.Node(v).Label = "router-x"
		g.Node(v).Kind = graph.KindCore
	}
	return g
}

func TestScrubPreservesStructure(t *testing.T) {
	g := sample(t)
	out := Scrub(g, Options{Seed: 2, PermuteIDs: true, StripLabels: true})
	if out.NumNodes() != g.NumNodes() || out.NumEdges() != g.NumEdges() {
		t.Fatal("scrub changed graph size")
	}
	// Degree multiset must be identical.
	a := g.Degrees()
	b := out.Degrees()
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("degree multiset changed")
		}
	}
	// Clustering is isomorphism-invariant (up to float summation order,
	// which the id permutation changes).
	ca := Summarize(g, 1).Clustering
	cb := Summarize(out, 1).Clustering
	if math.Abs(ca-cb) > 1e-9 {
		t.Fatalf("clustering changed: %v vs %v", ca, cb)
	}
}

func TestScrubRemovesLabels(t *testing.T) {
	g := sample(t)
	out := Scrub(g, Options{Seed: 3, StripLabels: true})
	for v := 0; v < out.NumNodes(); v++ {
		if out.Node(v).Label != "" {
			t.Fatal("label survived scrub")
		}
	}
	// Original untouched.
	if g.Node(0).Label == "" {
		t.Fatal("scrub mutated input graph")
	}
}

func TestScrubStripKinds(t *testing.T) {
	g := sample(t)
	out := Scrub(g, Options{Seed: 4, StripKinds: true})
	for v := 0; v < out.NumNodes(); v++ {
		if out.Node(v).Kind != graph.KindUnknown {
			t.Fatal("kind survived scrub")
		}
	}
}

func TestScrubPermutes(t *testing.T) {
	g := sample(t)
	// Tag nodes with distinct labels to detect the permutation.
	for v := 0; v < g.NumNodes(); v++ {
		g.Node(v).Label = string(rune('a' + v%26))
	}
	out := Scrub(g, Options{Seed: 5, PermuteIDs: true})
	moved := 0
	for v := 0; v < g.NumNodes(); v++ {
		if out.Node(v).Label != g.Node(v).Label {
			moved++
		}
	}
	if moved < g.NumNodes()/2 {
		t.Fatalf("permutation barely moved anything: %d", moved)
	}
}

func TestScrubCoarsensCoordinates(t *testing.T) {
	g := sample(t)
	out := Scrub(g, Options{Seed: 6, CoarsenGrid: 4})
	// At most 16 distinct (x,y) cells.
	seen := map[[2]float64]bool{}
	for v := 0; v < out.NumNodes(); v++ {
		nd := out.Node(v)
		seen[[2]float64{nd.X, nd.Y}] = true
	}
	if len(seen) > 16 {
		t.Fatalf("coarsening left %d distinct positions, want <= 16", len(seen))
	}
}

func TestScrubNoOptionsIsCopy(t *testing.T) {
	g := sample(t)
	out := Scrub(g, Options{})
	for v := 0; v < g.NumNodes(); v++ {
		a, b := g.Node(v), out.Node(v)
		if a.X != b.X || a.Y != b.Y || a.Label != b.Label || a.Kind != b.Kind {
			t.Fatal("no-op scrub altered a node")
		}
	}
}

func TestSummarizeInvariantUnderScrub(t *testing.T) {
	g := sample(t)
	s1 := Summarize(g, 9)
	s2 := Summarize(Scrub(g, Options{Seed: 7, PermuteIDs: true, StripLabels: true, StripKinds: true}), 9)
	if s1.Nodes != s2.Nodes || s1.Edges != s2.Edges || s1.MaxDegree != s2.MaxDegree {
		t.Fatal("scrub changed structural summary")
	}
	if s1.TailKind != s2.TailKind {
		t.Fatalf("tail classification changed: %s vs %s", s1.TailKind, s2.TailKind)
	}
	if math.Abs(s1.Clustering-s2.Clustering) > 1e-9 {
		t.Fatal("clustering changed")
	}
	if s1.String() == "" {
		t.Fatal("summary string empty")
	}
}

func TestScrubEmptyGraph(t *testing.T) {
	out := Scrub(graph.New(0), Options{Seed: 1, PermuteIDs: true, CoarsenGrid: 8})
	if out.NumNodes() != 0 {
		t.Fatal("empty graph scrub should stay empty")
	}
}
