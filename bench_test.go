package hotgen

// Benchmark harness: one benchmark per experiment table that
// experiments.All returns (BenchmarkE1... through BenchmarkE11...), each
// regenerating the corresponding paper claim at reduced-but-representative
// scale, plus micro-benchmarks of the algorithmic hot paths.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benches report the same rows that cmd/experiments
// prints, so `-bench E2 -v` doubles as a quick reproduction check.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/robust"
	"repro/internal/routing"
	"repro/internal/stats"
)

// benchOpts scales experiments so each bench iteration is ~100ms-1s.
func benchOpts() experiments.Options {
	return experiments.Options{Seed: 7, Scale: 0.25, Reps: 2}
}

func runExperiment(b *testing.B, run func(experiments.Options) (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1FKPSweep(b *testing.B)     { runExperiment(b, experiments.E1FKPSweep) }
func BenchmarkE2BuyAtBulk(b *testing.B)    { runExperiment(b, experiments.E2BuyAtBulk) }
func BenchmarkE3CostRatios(b *testing.B)   { runExperiment(b, experiments.E3CostRatios) }
func BenchmarkE4CostVsProfit(b *testing.B) { runExperiment(b, experiments.E4CostVsProfit) }
func BenchmarkE5NationalISP(b *testing.B)  { runExperiment(b, experiments.E5NationalISP) }
func BenchmarkE6Peering(b *testing.B)      { runExperiment(b, experiments.E6Peering) }
func BenchmarkE7GeneratorComparison(b *testing.B) {
	runExperiment(b, experiments.E7GeneratorComparison)
}
func BenchmarkE8Robustness(b *testing.B)   { runExperiment(b, experiments.E8Robustness) }
func BenchmarkE9Redundancy(b *testing.B)   { runExperiment(b, experiments.E9Redundancy) }
func BenchmarkE10Level2Rings(b *testing.B) { runExperiment(b, experiments.E10Level2Rings) }
func BenchmarkE11Performance(b *testing.B) { runExperiment(b, experiments.E11Performance) }

// --- Micro-benchmarks of the algorithmic hot paths ----------------------

func BenchmarkFKPGrowth1k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.FKPContext(context.Background(), core.FKPConfig{N: 1000, Alpha: 8, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFKPGrowth4k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.FKPContext(context.Background(), core.FKPConfig{N: 4000, Alpha: 8, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMMPIncremental1k(b *testing.B) {
	in, err := access.RandomInstance(access.InstanceConfig{
		N: 1000, Seed: 1, DemandMin: 1, DemandMax: 8, RootAtCenter: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := access.MMPIncremental(in, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleAndAugment1k(b *testing.B) {
	in, err := access.RandomInstance(access.InstanceConfig{
		N: 1000, Seed: 1, DemandMin: 1, DemandMax: 8, RootAtCenter: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := access.SampleAndAugment(in, int64(i), 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBarabasiAlbert10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gen.BarabasiAlbertContext(context.Background(), 10000, 2, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomGeometric10k generates the random geometric graph at
// 10k nodes and radius 0.02, about 12 neighbours per node: one grid
// radius query per node.
func BenchmarkRandomGeometric10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen.RandomGeometricContext(context.Background(), 10000, 0.02, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTailClassification(b *testing.B) {
	g, err := gen.BarabasiAlbertContext(context.Background(), 5000, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	deg := g.Degrees()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.ClassifyTail(deg)
	}
}

func BenchmarkBetweenness500(b *testing.B) {
	g, err := gen.BarabasiAlbertContext(context.Background(), 500, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Betweenness(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBetweennessTree runs the pass on FKP-2k at α 8, the tree the
// analysis-warm profile and bottleneck-edge units measure, which takes
// the forest path.
func BenchmarkBetweennessTree(b *testing.B) {
	g, err := core.FKPContext(context.Background(), core.FKPConfig{N: 2000, Alpha: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Betweenness(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetricProfile(b *testing.B) {
	g, err := gen.BarabasiAlbertContext(context.Background(), 800, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.ProfileContext(context.Background(), g, nil, 1, 0)
	}
}

func BenchmarkMaxMinFair(b *testing.B) {
	g, err := gen.BarabasiAlbertContext(context.Background(), 400, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := range g.Edges() {
		g.Edge(i).Capacity = 10
	}
	demands := make([]routing.Demand, 0, 200)
	for i := 0; i < 200; i++ {
		demands = append(demands, routing.Demand{Src: i, Dst: 399 - i, Volume: 5})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.MaxMinFairContext(context.Background(), g, nil, demands); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRobustnessSweep(b *testing.B) {
	g, err := gen.BarabasiAlbertContext(context.Background(), 800, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec := robust.SweepSpec{Attack: "degree", Fracs: []float64{0.05, 0.1, 0.2}, Trials: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := robust.RunSweepContext(context.Background(), g, nil, spec, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- CSR kernel micro-benchmarks ----------------------------------------
//
// The BFS pair quantifies the two tentpole effects: the CSR layout vs
// the slice-of-slices adjacency, and pooled workspaces vs per-call
// allocation. The pooled variants must report 0 allocs/op.

// benchGraph is a 4k-node weighted graph shared by the kernel benches.
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.BarabasiAlbertContext(context.Background(), 4000, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := range g.Edges() {
		g.Edge(i).Weight = float64(i%17) + 1
	}
	return g
}

func BenchmarkDijkstraCSRPooled(b *testing.B) {
	g := benchGraph(b)
	c := g.Freeze()
	ws := graph.GetWorkspace(c.NumNodes())
	defer ws.Release()
	c.DijkstraTo(ws, 0, nil) // warm the heap buffers before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DijkstraTo(ws, i%c.NumNodes(), nil)
	}
}

// BenchmarkDijkstraToSingleTarget routes 100 seeded (source, target)
// pairs through single-target DijkstraTo on one pooled workspace; one op
// is all 100 pairs. On BA-20k, whose edges join random node pairs, the
// search is the undirected bidirectional one; on HOT-20k, whose edges
// are local, it is goal-directed. scanned/op is the exact
// Workspace.DijkstraScanned total.
func BenchmarkDijkstraToSingleTarget(b *testing.B) {
	graphs := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"ba20k", func() (*graph.Graph, error) { return gen.BarabasiAlbertContext(context.Background(), 20000, 2, 1) }},
		{"hot20k", func() (*graph.Graph, error) {
			g, _, err := core.GrowHOTContext(context.Background(), core.HOTConfig{
				N: 20000, Seed: 1, LinksPerArrival: 2,
				Distance:   8,
				Centrality: 1,
			})
			return g, err
		}},
	}
	for _, gr := range graphs {
		b.Run(gr.name, func(b *testing.B) {
			g, err := gr.build()
			if err != nil {
				b.Fatal(err)
			}
			c := g.Freeze()
			n := c.NumNodes()
			r := rand.New(rand.NewSource(1))
			pairs := make([][2]int, 100)
			for i := range pairs {
				src, tgt := r.Intn(n), r.Intn(n)
				for tgt == src {
					tgt = r.Intn(n)
				}
				pairs[i] = [2]int{src, tgt}
			}
			ws := graph.GetWorkspace(n)
			defer ws.Release()
			target := make([]int, 1)
			route := func() (scanned int) {
				for _, p := range pairs {
					target[0] = p[1]
					c.DijkstraTo(ws, p[0], target)
					scanned += ws.DijkstraScanned
				}
				return scanned
			}
			scanned := route() // warm the workspace before measuring
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				route()
			}
			b.ReportMetric(float64(scanned), "scanned/op")
		})
	}
}

func BenchmarkBFSCSRPooled(b *testing.B) {
	g := benchGraph(b)
	c := g.Freeze()
	ws := graph.GetWorkspace(c.NumNodes())
	defer ws.Release()
	c.BFS(ws, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.BFS(ws, i%c.NumNodes())
	}
}

// --- Worker-pool scaling benches ----------------------------------------
//
// Sequential vs all-cores variants of the profile suite and a full
// experiment; on a multi-core runner the parallel variants should scale
// with GOMAXPROCS while producing byte-identical results (asserted by
// TestWorkersDeterminism). The profile pair is the clean comparison: its
// workers value reaches every metric family. The E11 pair varies only
// the replication fan-out — routing parallelism inside each policy is
// always on — so its ratio understates the kernel's scaling.

func BenchmarkProfileSequential(b *testing.B) {
	g, err := gen.BarabasiAlbertContext(context.Background(), 800, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.ProfileContext(context.Background(), g, nil, 1, 1)
	}
}

func BenchmarkProfileParallel(b *testing.B) {
	g, err := gen.BarabasiAlbertContext(context.Background(), 800, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.ProfileContext(context.Background(), g, nil, 1, runtime.NumCPU())
	}
}

func BenchmarkE11Workers1(b *testing.B) {
	opts := benchOpts()
	opts.Workers = 1
	runWorkersExperiment(b, opts)
}

func BenchmarkE11WorkersAll(b *testing.B) {
	opts := benchOpts()
	opts.Workers = runtime.NumCPU()
	runWorkersExperiment(b, opts)
}

func runWorkersExperiment(b *testing.B, opts experiments.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E11Performance(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}
