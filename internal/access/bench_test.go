package access

import "testing"

// BenchmarkMMP3k solves the design benchmark's 3,000-customer MMP
// instance and reports the candidates the attachment index evaluated as
// evals/op and the cells whose bound it tested as cells/op, exact work
// counts that cmd/benchdiff gates.
func BenchmarkMMP3k(b *testing.B) {
	in, err := RandomInstance(InstanceConfig{N: 3000, Seed: 1, DemandMin: 1, DemandMax: 16, RootAtCenter: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var net *Network
	for i := 0; i < b.N; i++ {
		if net, err = MMPIncremental(in, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(net.evals), "evals/op")
	b.ReportMetric(float64(net.cells), "cells/op")
}

// BenchmarkExactAccessOPT enumerates every spanning tree of a six-customer
// instance with the exact oracle the heuristics are tested against.
func BenchmarkExactAccessOPT(b *testing.B) {
	in, err := RandomInstance(InstanceConfig{
		N: 6, Seed: 1, DemandMin: 1, DemandMax: 8, RootAtCenter: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exactTreeOPT(in); err != nil {
			b.Fatal(err)
		}
	}
}
