package metricreg

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// spectralGapScatter is spectral-gap's power iteration as it stood
// before it gathered over sorted rows: y[v] accumulates by scattering
// x[u]/sqrt(deg u)/sqrt(deg v) over each u's insertion-ordered row. Kept
// as the bit-for-bit oracle of spectralGap.
func spectralGapScatter(c *graph.CSR, iters int) float64 {
	n := c.NumNodes()
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
		mu = 2*(num/den) - 1
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

// clusteringHashSets is the clustering metric as it stood before it
// read sorted rows: one hash set of distinct neighbours per node and a
// lookup per neighbour pair. Kept as the bit-for-bit oracle of
// avgClustering.
func clusteringHashSets(c *graph.CSR) (float64, bool) {
	n := c.NumNodes()
	nbrs := make([]map[int]bool, n)
	for u := 0; u < n; u++ {
		set := make(map[int]bool)
		c.Neighbors(u, func(v, _ int, _ float64) { set[v] = true })
		nbrs[u] = set
	}
	total, counted := 0.0, 0
	for u := 0; u < n; u++ {
		deg := len(nbrs[u])
		if deg < 2 {
			continue
		}
		links := 0
		neighbors := make([]int, 0, deg)
		for v := range nbrs[u] {
			neighbors = append(neighbors, v)
		}
		for i := 0; i < len(neighbors); i++ {
			for j := i + 1; j < len(neighbors); j++ {
				if nbrs[neighbors[i]][neighbors[j]] {
					links++
				}
			}
		}
		total += 2 * float64(links) / (float64(deg) * float64(deg-1))
		counted++
	}
	if counted == 0 {
		return 0, false
	}
	return total / float64(counted), true
}

// rowOracleGraphs are graphs whose rows exercise the sorted-row
// readers: BA and ER with parallel copies of some edges, added in an
// order that leaves insertion-ordered rows unsorted, plus isolated
// nodes, a triangle with a doubled edge, and an edgeless graph. Graph
// rejects self-loops, so no snapshot holds one.
func rowOracleGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	ba, err := gen.BarabasiAlbertContext(context.Background(), 400, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	er, err := gen.ErdosRenyiGNMContext(context.Background(), 300, 900, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{ba, er} {
		m := g.NumEdges()
		for i := m - 1; i >= 0; i -= 7 {
			e := *g.Edge(i)
			e.U, e.V = e.V, e.U
			g.AddEdge(e)
		}
		for k := 0; k < 3; k++ {
			g.AddNode(graph.Node{})
		}
	}
	tri := graph.New(4)
	for i := 0; i < 4; i++ {
		tri.AddNode(graph.Node{})
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {1, 0}, {2, 3}} {
		tri.AddEdge(graph.Edge{U: e[0], V: e[1], Weight: 1})
	}
	empty := graph.New(3)
	for i := 0; i < 3; i++ {
		empty.AddNode(graph.Node{})
	}
	return map[string]*graph.Graph{"ba": ba, "er": er, "triangle": tri, "edgeless": empty}
}

// TestSortedRowMetricsMatchOracles pins spectral-gap's gathered power
// iteration and clustering's mark-array count bit for bit to their
// previous scatter and hash-set implementations. The edgeless graph
// drives the iteration to NaN (its start vector deflates by 0/0), which
// both must report.
func TestSortedRowMetricsMatchOracles(t *testing.T) {
	for name, g := range rowOracleGraphs(t) {
		c := g.Freeze()
		for _, iters := range []int{1, 30, 150} {
			got, err := spectralGap(context.Background(), c, iters)
			if err != nil {
				t.Fatal(err)
			}
			want := spectralGapScatter(c, iters)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s iters %d: spectral gap %v, scatter oracle %v", name, iters, got, want)
			}
		}
		got, gotOK := avgClustering(c)
		want, wantOK := clusteringHashSets(c)
		if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: clustering (%v, %v), hash-set oracle (%v, %v)", name, got, gotOK, want, wantOK)
		}
	}
}
