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

// benchHOTEvals grows cfg per iteration and reports the candidates the
// attachment index evaluated as evals/op, an exact work count that
// cmd/benchdiff gates.
func benchHOTEvals(b *testing.B, cfg HOTConfig) {
	b.ReportAllocs()
	evals := 0
	for i := 0; i < b.N; i++ {
		_, st, err := GrowHOTContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		evals = st.evals
	}
	b.ReportMetric(float64(evals), "evals/op")
}

// BenchmarkHOTGrow16kLinks2 grows the design benchmark's 16k-node HOT
// topology with two links per arrival.
func BenchmarkHOTGrow16kLinks2(b *testing.B) {
	benchHOTEvals(b, HOTConfig{
		N: 16_000, Seed: 1, LinksPerArrival: 2,
		Terms: []ObjectiveTerm{DistanceTerm{Weight: 8}, CentralityTerm{Weight: 1}},
	})
}

// BenchmarkHOTGrow8kPorts8 grows the design benchmark's 8k-node HOT
// topology under an 8-port router cap.
func BenchmarkHOTGrow8kPorts8(b *testing.B) {
	benchHOTEvals(b, HOTConfig{
		N: 8_000, Seed: 1,
		Terms:       []ObjectiveTerm{DistanceTerm{Weight: 8}, CentralityTerm{Weight: 1}},
		Constraints: []Constraint{MaxDegreeConstraint{Max: 8}},
	})
}
