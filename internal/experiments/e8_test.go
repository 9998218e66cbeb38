package experiments

import (
	"context"
	"testing"

	"repro/internal/graph"
)

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

func TestCriticalFraction(t *testing.T) {
	g := star(100)
	// Degree attack destroys the star immediately.
	f, err := criticalFraction(context.Background(), g, nil, "degree", 0.5, 20, 1, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f > 0.1 {
		t.Fatalf("star critical fraction under attack = %v, want tiny", f)
	}
	if _, err := criticalFraction(context.Background(), g, nil, "degree", 0.5, 0, 1, 7, 0); err == nil {
		t.Fatal("steps=0 should error")
	}
}

func TestCriticalFractionNeverDegrades(t *testing.T) {
	// A complete graph only loses what is removed; with threshold 0.01
	// no grid fraction below 1 drops it under threshold.
	g := graph.New(20)
	for i := 0; i < 20; i++ {
		g.AddNode(graph.Node{})
	}
	for u := 0; u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			g.AddEdge(graph.Edge{U: u, V: v, Weight: 1})
		}
	}
	f, err := criticalFraction(context.Background(), g, nil, "random-failure", 0.01, 10, 2, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f != 1 {
		t.Fatalf("complete graph critical fraction = %v, want 1", f)
	}
}
