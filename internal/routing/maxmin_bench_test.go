package routing

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// maxMinBenchInstance is a 400-node BA backbone with mixed volumes, a
// third of them below their likely fair share so the volume-aware
// redistribution rounds actually run.
func maxMinBenchInstance(b *testing.B) (*graph.Graph, []Demand) {
	b.Helper()
	g, err := gen.BarabasiAlbertContext(context.Background(), 400, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := range g.Edges() {
		g.Edge(i).Capacity = 10
	}
	demands := make([]Demand, 0, 200)
	for i := 0; i < 200; i++ {
		vol := 5.0
		if i%3 == 0 {
			vol = 0.05
		}
		demands = append(demands, Demand{Src: i, Dst: 399 - i, Volume: vol})
	}
	return g, demands
}

func BenchmarkMaxMinFairVolumeAware(b *testing.B) {
	g, demands := maxMinBenchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaxMinFairContext(context.Background(), g, nil, demands); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxMinFairLegacyCapped(b *testing.B) {
	g, demands := maxMinBenchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxMinFairLegacy(g, demands); err != nil {
			b.Fatal(err)
		}
	}
}
