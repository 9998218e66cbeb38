package core

import (
	"context"
	"testing"

	"repro/internal/geom"
)

func TestGrowHOTFixedArrivals(t *testing.T) {
	// Three co-located clusters of arrivals: the growth should track them.
	var arrivals []geom.Point
	centers := []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.1}, {X: 0.5, Y: 0.9}}
	for i := 0; i < 99; i++ {
		c := centers[i%3]
		arrivals = append(arrivals, geom.Point{X: c.X + float64(i)*1e-4, Y: c.Y})
	}
	g, _, err := GrowHOTContext(context.Background(), HOTConfig{
		N:          100,
		Seed:       1,
		Distance:   100,
		Centrality: 1,
		Arrivals:   arrivals,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Every non-root node sits exactly at its prescribed arrival point.
	for i := 1; i < 100; i++ {
		nd := g.Node(i)
		if nd.X != arrivals[i-1].X || nd.Y != arrivals[i-1].Y {
			t.Fatalf("node %d not at prescribed arrival", i)
		}
	}
}

func TestGrowHOTArrivalsTooShort(t *testing.T) {
	_, _, err := GrowHOTContext(context.Background(), HOTConfig{
		N:        10,
		Distance: 1,
		Arrivals: make([]geom.Point, 3),
	})
	if err == nil {
		t.Fatal("short arrivals slice should fail validation")
	}
}

func TestGrowHOTArrivalsDeterministicVsUniform(t *testing.T) {
	// With Arrivals given, the RNG is untouched for placement, so two
	// runs with different seeds but same arrivals and pure-distance
	// objective must agree.
	arrivals := make([]geom.Point, 49)
	for i := range arrivals {
		arrivals[i] = geom.Point{X: float64(i+1) / 51.0, Y: 0.3}
	}
	a, _, err := GrowHOTContext(context.Background(), HOTConfig{
		N: 50, Seed: 1, Arrivals: arrivals, Distance: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := GrowHOTContext(context.Background(), HOTConfig{
		N: 50, Seed: 99, Arrivals: arrivals, Distance: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NumEdges(); i++ {
		if a.Edge(i).U != b.Edge(i).U || a.Edge(i).V != b.Edge(i).V {
			t.Fatal("fixed arrivals should make growth seed-independent")
		}
	}
}
