package hotgen

// Scaling benchmark tier: the 100k-node slice of the million-node kernel
// benchmarks (BenchmarkScale*). These are too heavy for the per-commit
// bench smoke, so they skip themselves under -short; CI runs them in the
// scheduled bench-scale job, and scripts/bench.sh includes them in the
// recorded baseline. The 1M-node and HOT-grown slices are heavier still
// and live behind the slowbench build tag (bench_scale_slow_test.go).
//
// Each kernel pair (direction-optimizing vs top-down BFS, bucketed vs
// heap Dijkstra) is benchmarked on the same cached topology, so the
// recorded baseline doubles as the measured speedup of the optimized
// kernel at scale.

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
)

// scaleTopo is a cached benchmark topology: graphs this size take longer
// to generate than to traverse, so they are built once per process and
// shared by every benchmark that asks for the same key.
type scaleTopo struct {
	g *graph.Graph
	c *graph.CSR
}

var (
	scaleMu    sync.Mutex
	scaleTopos = map[string]*scaleTopo{}
)

func scaleTopoFor(b *testing.B, key string, build func() (*graph.Graph, error)) *scaleTopo {
	b.Helper()
	scaleMu.Lock()
	defer scaleMu.Unlock()
	if t, ok := scaleTopos[key]; ok {
		return t
	}
	g, err := build()
	if err != nil {
		b.Fatalf("build %s: %v", key, err)
	}
	t := &scaleTopo{g: g, c: g.Freeze()}
	scaleTopos[key] = t
	return t
}

func skipUnlessScale(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("scale tier skipped in -short mode")
	}
}

func ba100k(b *testing.B) *scaleTopo {
	return scaleTopoFor(b, "ba-100k", func() (*graph.Graph, error) { return gen.BarabasiAlbertContext(context.Background(), 100_000, 2, 1) })
}

func er100k(b *testing.B) *scaleTopo {
	return scaleTopoFor(b, "er-100k", func() (*graph.Graph, error) {
		return gen.ErdosRenyiGNMContext(context.Background(), 100_000, 200_000, 1)
	})
}

// hot100k is an optimization-grown topology at the 100k tier — feasible
// here (rather than behind slowbench) because growth runs on the grid
// index's ~O(n log n) path.
func hot100k(b *testing.B) *scaleTopo {
	return scaleTopoFor(b, "hot-100k", func() (*graph.Graph, error) {
		g, _, err := core.GrowHOTContext(context.Background(), core.HOTConfig{
			N:               100_000,
			Seed:            1,
			Distance:        8,
			Centrality:      1,
			LinksPerArrival: 2,
		})
		return g, err
	})
}

// benchSources picks a deterministic rotation of BFS/SSSP sources so
// successive iterations do not hit one warm source.
func benchSources(n int, seed int64) [64]int {
	var srcs [64]int
	r := rand.New(rand.NewSource(seed))
	for i := range srcs {
		srcs[i] = r.Intn(n)
	}
	return srcs
}

func benchBFS(b *testing.B, t *scaleTopo, topDown bool) {
	srcs := benchSources(t.c.NumNodes(), 42)
	ws := graph.GetWorkspace(t.c.NumNodes())
	defer ws.Release()
	// Untimed warmup: fault in the workspace pages and the CSR arrays so
	// -benchtime 1x numbers compare kernels, not first-touch costs.
	t.c.BFS(ws, srcs[0])
	t.c.BFSTopDown(ws, srcs[0])
	b.ReportAllocs()
	b.ResetTimer()
	bottomUp := 0
	for i := 0; i < b.N; i++ {
		src := srcs[i%len(srcs)]
		if topDown {
			t.c.BFSTopDown(ws, src)
		} else {
			t.c.BFS(ws, src)
			bottomUp += ws.BFSBottomUpLevels
		}
	}
	if !topDown {
		b.ReportMetric(float64(bottomUp)/float64(b.N), "bu-levels/op")
	}
}

// benchHOTGrow measures whole-topology growth (the generator hot path),
// which runs on the grid index; with
// BenchmarkScaleHOTGrow25kExhaustive in internal/core, which forces the
// exhaustive scan, the 25k slice records the grid index's measured
// speedup.
func benchHOTGrow(b *testing.B, n int) {
	cfg := core.HOTConfig{
		N:               n,
		Seed:            1,
		Distance:        8,
		Centrality:      1,
		LinksPerArrival: 2,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.GrowHOTContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDijkstra(b *testing.B, t *scaleTopo, heap bool) {
	srcs := benchSources(t.c.NumNodes(), 43)
	ws := graph.GetWorkspace(t.c.NumNodes())
	defer ws.Release()
	t.c.DijkstraTo(ws, srcs[0], nil)
	t.c.DijkstraHeap(ws, srcs[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if heap {
			t.c.DijkstraHeap(ws, srcs[i%len(srcs)])
		} else {
			t.c.DijkstraTo(ws, srcs[i%len(srcs)], nil)
		}
	}
}

func BenchmarkScaleBFSDirOptBA100k(b *testing.B) {
	skipUnlessScale(b)
	benchBFS(b, ba100k(b), false)
}

func BenchmarkScaleBFSTopDownBA100k(b *testing.B) {
	skipUnlessScale(b)
	benchBFS(b, ba100k(b), true)
}

func BenchmarkScaleBFSDirOptER100k(b *testing.B) {
	skipUnlessScale(b)
	benchBFS(b, er100k(b), false)
}

func BenchmarkScaleBFSTopDownER100k(b *testing.B) {
	skipUnlessScale(b)
	benchBFS(b, er100k(b), true)
}

func BenchmarkScaleBFSDirOptHOT100k(b *testing.B) {
	skipUnlessScale(b)
	benchBFS(b, hot100k(b), false)
}

func BenchmarkScaleBFSTopDownHOT100k(b *testing.B) {
	skipUnlessScale(b)
	benchBFS(b, hot100k(b), true)
}

func BenchmarkScaleHOTGrow25kGrid(b *testing.B) {
	skipUnlessScale(b)
	benchHOTGrow(b, 25_000)
}

func BenchmarkScaleDijkstraBucketBA100k(b *testing.B) {
	skipUnlessScale(b)
	benchDijkstra(b, ba100k(b), false)
}

func BenchmarkScaleDijkstraHeapBA100k(b *testing.B) {
	skipUnlessScale(b)
	benchDijkstra(b, ba100k(b), true)
}

// scaleDemands draws a deterministic random demand set for the routing
// fan-out benchmarks.
func scaleDemands(n, k int, seed int64) []routing.Demand {
	r := rand.New(rand.NewSource(seed))
	out := make([]routing.Demand, 0, k)
	for len(out) < k {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		out = append(out, routing.Demand{Src: u, Dst: v, Volume: 1 + r.Float64()})
	}
	return out
}

func BenchmarkScaleRoutingFanoutBA100k(b *testing.B) {
	skipUnlessScale(b)
	t := ba100k(b)
	demands := scaleDemands(t.c.NumNodes(), 256, 44)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.RouteShortestPathsContext(context.Background(), t.g, t.c, demands); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScaleLCCMaskedSweepBA100k(b *testing.B) {
	skipUnlessScale(b)
	t := ba100k(b)
	n := t.c.NumNodes()
	// Degree-attack mask at 5% removed: what one robustness sweep step
	// measures at this scale.
	deg := t.g.Degrees()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		if deg[ids[a]] != deg[ids[b]] {
			return deg[ids[a]] > deg[ids[b]]
		}
		return ids[a] < ids[b]
	})
	removed := make([]bool, n)
	for _, u := range ids[:n/20] {
		removed[u] = true
	}
	ws := graph.GetWorkspace(n)
	defer ws.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.c.LargestComponentMasked(ws, removed, nil)
	}
}
