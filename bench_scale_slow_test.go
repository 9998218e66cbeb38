//go:build slowbench

package hotgen

// The million-node and heaviest HOT-grown slices of the scaling tier,
// behind the slowbench build tag because topology construction alone
// takes tens of seconds:
//
//	go test -tags slowbench -run '^$' -bench BenchmarkScale -benchtime 1x .
//
// The grid-index growth path is ~O(n log n), which pulls HOT topologies
// up to the full 10^6 nodes the int32 CSR tier targets (the 25k slice is
// kept for continuity with older baselines, and the 100k slice lives in
// the weekly tier). The exhaustive-scan growth reference stays O(n^2)
// and is only benchmarked at 25k.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
)

func ba1m(b *testing.B) *scaleTopo {
	return scaleTopoFor(b, "ba-1m", func() (*graph.Graph, error) { return gen.BarabasiAlbertContext(context.Background(), 1_000_000, 2, 1) })
}

func er1m(b *testing.B) *scaleTopo {
	return scaleTopoFor(b, "er-1m", func() (*graph.Graph, error) {
		return gen.ErdosRenyiGNMContext(context.Background(), 1_000_000, 2_000_000, 1)
	})
}

// ba10m is the 10^7-node slice of the scaling tier. At m=2 the snapshot
// is ~10M nodes / ~20M edges: roughly 0.5 GB for the CSR arrays plus the
// builder graph — the regime ROADMAP item 2 targets. Construction takes
// minutes; the benchmarks below exist primarily to prove the int32 CSR
// path and both traversal kernels hold up there, not for per-commit
// gating.
func ba10m(b *testing.B) *scaleTopo {
	return scaleTopoFor(b, "ba-10m", func() (*graph.Graph, error) { return gen.BarabasiAlbertContext(context.Background(), 10_000_000, 2, 1) })
}

func hot25k(b *testing.B) *scaleTopo {
	return scaleTopoFor(b, "hot-25k", func() (*graph.Graph, error) {
		g, _, err := core.GrowHOTContext(context.Background(), core.HOTConfig{
			N:               25_000,
			Seed:            1,
			Distance:        8,
			Centrality:      1,
			LinksPerArrival: 2,
		})
		return g, err
	})
}

func hot1m(b *testing.B) *scaleTopo {
	return scaleTopoFor(b, "hot-1m", func() (*graph.Graph, error) {
		g, _, err := core.GrowHOTContext(context.Background(), core.HOTConfig{
			N:               1_000_000,
			Seed:            1,
			Distance:        8,
			Centrality:      1,
			LinksPerArrival: 2,
		})
		return g, err
	})
}

func BenchmarkScaleBFSDirOptBA1M(b *testing.B)   { benchBFS(b, ba1m(b), false) }
func BenchmarkScaleBFSTopDownBA1M(b *testing.B)  { benchBFS(b, ba1m(b), true) }
func BenchmarkScaleBFSDirOptER1M(b *testing.B)   { benchBFS(b, er1m(b), false) }
func BenchmarkScaleBFSTopDownER1M(b *testing.B)  { benchBFS(b, er1m(b), true) }
func BenchmarkScaleBFSDirOptHOT25k(b *testing.B) { benchBFS(b, hot25k(b), false) }
func BenchmarkScaleBFSTopDownHOT25k(b *testing.B) {
	benchBFS(b, hot25k(b), true)
}
func BenchmarkScaleBFSDirOptHOT1M(b *testing.B)  { benchBFS(b, hot1m(b), false) }
func BenchmarkScaleBFSTopDownHOT1M(b *testing.B) { benchBFS(b, hot1m(b), true) }

// BenchmarkScaleHOTGrow1M grows a million-node HOT topology per
// iteration on the grid-index path — infeasible on the O(n^2)
// exhaustive scan, which is exactly the point.
func BenchmarkScaleHOTGrow1M(b *testing.B) { benchHOTGrow(b, 1_000_000) }

func BenchmarkScaleDijkstraBucketBA1M(b *testing.B) { benchDijkstra(b, ba1m(b), false) }
func BenchmarkScaleDijkstraHeapBA1M(b *testing.B)   { benchDijkstra(b, ba1m(b), true) }

// The 10M slices: both kernels at the top of the int32 CSR range.
func BenchmarkScaleBFSDirOptBA10M(b *testing.B)      { benchBFS(b, ba10m(b), false) }
func BenchmarkScaleDijkstraBucketBA10M(b *testing.B) { benchDijkstra(b, ba10m(b), false) }

func BenchmarkScaleRoutingFanoutBA1M(b *testing.B) {
	t := ba1m(b)
	// 64 demands (~64 distinct sources): enough to exercise the
	// per-worker workspace fan-out without hour-long single-core runs.
	demands := scaleDemands(t.c.NumNodes(), 64, 44)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.RouteShortestPathsContext(context.Background(), t.g, t.c, demands); err != nil {
			b.Fatal(err)
		}
	}
}
