package gen

import (
	"context"
	"testing"

	"repro/internal/stats"
)

func TestInetLikeConnected(t *testing.T) {
	g, err := InetLikeContext(context.Background(), 800, 2.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 800 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if !g.IsConnected() {
		t.Fatal("InetLike must patch connectivity")
	}
}

func TestInetLikeHeavyTail(t *testing.T) {
	g, err := InetLikeContext(context.Background(), 3000, 2.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := stats.ClassifyTail(g.Degrees())
	if c.Kind != stats.TailPowerLaw {
		t.Fatalf("InetLike degrees classified %v, want power-law", c.Kind)
	}
}

func TestInetLikeErrors(t *testing.T) {
	if _, err := InetLikeContext(context.Background(), 2, 2.1, 1); err == nil {
		t.Fatal("tiny n should error")
	}
	if _, err := InetLikeContext(context.Background(), 100, 1.0, 1); err == nil {
		t.Fatal("alpha <= 1 should error")
	}
}

func TestInetLikeDeterministic(t *testing.T) {
	a, err := InetLikeContext(context.Background(), 300, 2.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := InetLikeContext(context.Background(), 300, 2.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("InetLike not deterministic")
	}
}
