package access

import "testing"

// BenchmarkMMP3k solves the design benchmark's 3,000-customer MMP
// instance and reports the candidates the attachment index evaluated as
// evals/op, an exact work count that cmd/benchdiff gates.
func BenchmarkMMP3k(b *testing.B) {
	in, err := RandomInstance(InstanceConfig{N: 3000, Seed: 1, DemandMin: 1, DemandMax: 16, RootAtCenter: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	evals := 0
	for i := 0; i < b.N; i++ {
		net, err := MMPIncremental(in, 1)
		if err != nil {
			b.Fatal(err)
		}
		evals = net.evals
	}
	b.ReportMetric(float64(evals), "evals/op")
}
