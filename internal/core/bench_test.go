package core

import (
	"context"
	"testing"
)

// BenchmarkScaleHOTGrow25kExhaustive grows the 25k-node HOT topology of
// the root package's BenchmarkScaleHOTGrow25kGrid on the O(n^2)
// exhaustive reference scan, which only this package can force; the
// pair records the grid index's measured speedup. Like the rest of the
// scaling tier it skips itself under -short.
func BenchmarkScaleHOTGrow25kExhaustive(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier skipped in -short mode")
	}
	cfg := HOTConfig{
		N:               25_000,
		Seed:            1,
		Terms:           []ObjectiveTerm{DistanceTerm{Weight: 8}, CentralityTerm{Weight: 1}},
		LinksPerArrival: 2,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := growHOT(context.Background(), cfg, forceExhaustive); err != nil {
			b.Fatal(err)
		}
	}
}
