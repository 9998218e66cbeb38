package isp

import (
	"context"
	"testing"

	"repro/internal/traffic"
)

// BenchmarkDesign8k designs the design benchmark's cost-based ISP (60
// cities, 8,000 customers, 20 POPs) and reports the candidates the metro
// attachment indexes evaluated as evals/op and the cells whose bound
// they tested as cells/op, exact work counts that cmd/benchdiff gates.
func BenchmarkDesign8k(b *testing.B) {
	geo, err := traffic.GenerateGeography(traffic.GeographyConfig{
		NumCities: 60, Seed: 1, ZipfExponent: 1, MinSeparation: 0.03,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Geography: geo, NumPOPs: 20, Customers: 8000, Seed: 1,
		PerfWeight: 50, MaxExtraBackboneLinks: 4, DemandMin: 1, DemandMax: 8,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var des *Design
	for i := 0; i < b.N; i++ {
		if des, err = BuildContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(des.evals), "evals/op")
	b.ReportMetric(float64(des.cells), "cells/op")
}
