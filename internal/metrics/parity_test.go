package metrics

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/params"
	"repro/internal/rng"
)

// This file pins the metric-registry refactor to the pre-registry
// numbers: legacyComputeProfile below is the verbatim pre-refactor
// implementation (PR 1's ComputeProfile, sequential form), and the
// parity test demands exact (==) equality against the registry path
// for several generator models and seeds. If a registry metric ever
// reorders a floating-point reduction, this fails loudly.

func legacyExpansion(c *graph.CSR, maxH, sampleSources int, seed int64) []float64 {
	n := c.NumNodes()
	if n == 0 || maxH <= 0 {
		return nil
	}
	sources := legacyChooseSources(n, sampleSources, seed)
	counts := make([][]int, len(sources))
	for si := range sources {
		ws := graph.GetWorkspace(n)
		c.BFS(ws, sources[si])
		row := make([]int, maxH+1)
		for _, d := range ws.Hop[:n] {
			if d >= 0 && int(d) <= maxH {
				row[d]++
			}
		}
		counts[si] = row
		ws.Release()
	}
	out := make([]float64, maxH+1)
	for _, row := range counts {
		acc := 0
		for h := 0; h <= maxH; h++ {
			acc += row[h]
			out[h] += float64(acc) / float64(n)
		}
	}
	for h := range out {
		out[h] /= float64(len(sources))
	}
	return out
}

func legacyResilience(c *graph.CSR, steps, trials int, seed int64) float64 {
	n := c.NumNodes()
	if n == 0 || steps <= 0 || trials <= 0 {
		return 0
	}
	perTrial := make([]float64, trials)
	for trial := 0; trial < trials; trial++ {
		r := rng.New(rng.Derive(seed, trial))
		perm := rng.Shuffle(r, n)
		ws := graph.GetWorkspace(n)
		removed := make([]bool, n)
		prev := 0
		sum := 0.0
		for s := 1; s <= steps; s++ {
			frac := float64(s) / float64(steps+1)
			k := int(frac * float64(n))
			for ; prev < k; prev++ {
				removed[perm[prev]] = true
			}
			sum += float64(c.LargestComponentMasked(ws, removed, nil)) / float64(n)
		}
		perTrial[trial] = sum
		ws.Release()
	}
	total := 0.0
	for _, s := range perTrial {
		total += s
	}
	return total / float64(steps*trials)
}

func legacyDistortion(g *graph.Graph, sampleEdges int, seed int64) float64 {
	m := g.NumEdges()
	n := g.NumNodes()
	if m == 0 || n == 0 {
		return 0
	}
	mstIDs, _ := g.KruskalMST()
	tree := graph.New(n)
	for i := 0; i < n; i++ {
		tree.AddNode(*g.Node(i))
	}
	for _, id := range mstIDs {
		e := g.Edge(id)
		tree.AddEdge(graph.Edge{U: e.U, V: e.V, Weight: e.Weight})
	}
	edges := make([]int, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, i)
	}
	if sampleEdges > 0 && sampleEdges < m {
		r := rng.New(seed)
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		edges = edges[:sampleEdges]
	}
	bySrc := map[int][]int{}
	for _, id := range edges {
		e := g.Edge(id)
		bySrc[e.U] = append(bySrc[e.U], e.V)
	}
	srcs := make([]int, 0, len(bySrc))
	for s := range bySrc {
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)
	tc := tree.Freeze()
	total := 0.0
	count := 0
	for _, s := range srcs {
		ws := graph.GetWorkspace(n)
		tc.BFS(ws, s)
		for _, v := range bySrc[s] {
			if ws.Hop[v] > 0 {
				total += float64(ws.Hop[v])
				count++
			}
		}
		ws.Release()
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

func legacyHierarchyDepth(g *graph.Graph, root int) float64 {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	if root < 0 {
		bc := g.Betweenness()
		root = 0
		for i, b := range bc {
			if b > bc[root] {
				root = i
			}
		}
	}
	dist, _ := g.BFS(root)
	total, count := 0, 0
	for _, d := range dist {
		if d > 0 {
			total += d
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return (float64(total) / float64(count)) / math.Log2(float64(n))
}

func legacySpectralGap(c *graph.CSR, iters int) float64 {
	n := c.NumNodes()
	if n < 2 {
		return 0
	}
	if iters <= 0 {
		iters = 200
	}
	invSqrtDeg := make([]float64, n)
	v1 := make([]float64, n)
	norm := 0.0
	for i := 0; i < n; i++ {
		d := float64(c.Degree(i))
		v1[i] = math.Sqrt(d)
		if d > 0 {
			invSqrtDeg[i] = 1 / math.Sqrt(d)
		}
		norm += v1[i] * v1[i]
	}
	norm = math.Sqrt(norm)
	for i := range v1 {
		v1[i] /= norm
	}
	x := make([]float64, n)
	r := rng.New(12345)
	for i := range x {
		x[i] = r.Float64() - 0.5
	}
	y := make([]float64, n)
	var mu float64
	for it := 0; it < iters; it++ {
		dot := 0.0
		for i := range x {
			dot += x[i] * v1[i]
		}
		for i := range x {
			x[i] -= dot * v1[i]
		}
		for i := range y {
			y[i] = 0
		}
		for u := 0; u < n; u++ {
			if invSqrtDeg[u] == 0 {
				continue
			}
			xu := x[u]
			c.Neighbors(u, func(v int, _ int, _ float64) {
				y[v] += xu * invSqrtDeg[u] * invSqrtDeg[v]
			})
		}
		for i := range y {
			y[i] = (y[i] + x[i]) / 2
		}
		num, den := 0.0, 0.0
		for i := range y {
			num += y[i] * x[i]
			den += x[i] * x[i]
		}
		if den == 0 {
			return 0
		}
		shifted := num / den
		mu = 2*shifted - 1
		ynorm := 0.0
		for i := range y {
			ynorm += y[i] * y[i]
		}
		ynorm = math.Sqrt(ynorm)
		if ynorm == 0 {
			return 0
		}
		for i := range y {
			x[i] = y[i] / ynorm
		}
	}
	lambda2 := 1 - mu
	if lambda2 < 0 {
		lambda2 = 0
	}
	return lambda2
}

func legacyChooseSources(n, k int, seed int64) []int {
	if k <= 0 || k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	r := rng.New(seed)
	return rng.Shuffle(r, n)[:k]
}

func legacyComputeProfile(g *graph.Graph, seed int64) Profile {
	p := Profile{
		Nodes:     g.NumNodes(),
		Edges:     g.NumEdges(),
		MaxDegree: g.MaxDegree(),
	}
	c := g.Freeze()
	if exp := legacyExpansion(c, 3, 50, seed); len(exp) > 3 {
		p.ExpansionAt3 = exp[3]
	}
	p.Resilience = legacyResilience(c, 10, 3, seed)
	p.Distortion = legacyDistortion(g, 2000, seed)
	p.HierarchyDepth = legacyHierarchyDepth(g, -1)
	if g.IsConnected() {
		p.SpectralGap = legacySpectralGap(c, 150)
	}
	return p
}

func parityGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for _, seed := range []int64{1, 7} {
		ba, err := gen.BarabasiAlbertContext(context.Background(), 300, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("ba/%d", seed)] = ba
		er, err := gen.ErdosRenyiGNMContext(context.Background(), 300, 600, seed)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("er-gnm/%d", seed)] = er
		wx, err := gen.WaxmanContext(context.Background(), 250, 0.15, 0.5, seed)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("waxman/%d", seed)] = wx
	}
	return out
}

// TestProfileRegistryParity is the golden old-vs-new gate of the
// metric-registry refactor: for three generator models and two seeds
// each, the registry-evaluated profile must be numerically identical —
// bit-for-bit — to the pre-refactor implementation.
func TestProfileRegistryParity(t *testing.T) {
	for name, g := range parityGraphs(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			want := legacyComputeProfile(g, 42)
			got, err := ProfileContext(context.Background(), g, nil, 42, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("registry profile diverged from legacy:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestFreeFunctionRegistryParity pins each metric, evaluated alone
// through the registry, to the legacy free function's value too.
func TestFreeFunctionRegistryParity(t *testing.T) {
	g, err := gen.BarabasiAlbertContext(context.Background(), 250, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Freeze()
	gotExp := eval(t, g, 9, "expansion", params.Params{"maxh": 4, "sources": 30}).Series
	wantExp := legacyExpansion(c, 4, 30, 9)
	if len(gotExp) != len(wantExp) {
		t.Fatalf("expansion length %d vs %d", len(gotExp), len(wantExp))
	}
	for i := range gotExp {
		if gotExp[i] != wantExp[i] {
			t.Fatalf("expansion[%d] = %v, legacy %v", i, gotExp[i], wantExp[i])
		}
	}
	if got, want := eval(t, g, 5, "resilience", params.Params{"steps": 8, "trials": 2}).Scalar, legacyResilience(c, 8, 2, 5); got != want {
		t.Fatalf("resilience %v, legacy %v", got, want)
	}
	if got, want := eval(t, g, 5, "distortion", params.Params{"sample": 500}).Scalar, legacyDistortion(g, 500, 5); got != want {
		t.Fatalf("distortion %v, legacy %v", got, want)
	}
	if got, want := eval(t, g, 0, "hierarchy-depth", params.Params{"root": -1}).Scalar, legacyHierarchyDepth(g, -1); got != want {
		t.Fatalf("hierarchy depth %v, legacy %v", got, want)
	}
	if got, want := eval(t, g, 0, "spectral-gap", params.Params{"iters": 100}).Scalar, legacySpectralGap(c, 100); got != want {
		t.Fatalf("spectral gap %v, legacy %v", got, want)
	}
}
