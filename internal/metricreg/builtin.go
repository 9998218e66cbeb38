package metricreg

import (
	"context"
	"math"

	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/params"
	"repro/internal/rng"
)

// Built-in metrics. The traversal-heavy implementations moved here
// verbatim from internal/metrics and internal/stats (which now wrap the
// registry), so registry evaluation is numerically identical to the
// pre-registry free functions — the golden parity test in
// internal/metrics pins that.
func init() {
	for _, m := range builtins() {
		if err := Register(m); err != nil {
			panic(err)
		}
	}
}

func intSpec(name string, def float64, min *float64, help string) params.Spec {
	return params.Spec{Name: name, Kind: params.Int, Default: def, Min: min, Help: help}
}

func fptr(v float64) *float64 { return &v }

func builtins() []Metric {
	return []Metric{
		&FuncMetric{
			MetricName: "expansion",
			MetricParams: []params.Spec{
				intSpec("maxh", 3, fptr(1), "hop horizon of the expansion curve"),
				intSpec("sources", 50, nil, "BFS sample sources (<= 0 = all nodes)"),
			},
			NewFn: func(p params.Params, seed int64) Accumulator {
				return &expansionAcc{maxH: p.Int("maxh"), sample: p.Int("sources"), seed: seed}
			},
		},
		&FuncMetric{
			MetricName: "avg-hop-length",
			MetricParams: []params.Spec{
				intSpec("sources", 0, nil, "BFS sample sources (<= 0 = all nodes)"),
			},
			NewFn: func(p params.Params, seed int64) Accumulator {
				return &hopStatsAcc{sample: p.Int("sources"), seed: seed}
			},
		},
		&FuncMetric{
			MetricName: "diameter",
			MetricParams: []params.Spec{
				intSpec("sources", 0, nil, "BFS sample sources (<= 0 = all nodes; sampling lower-bounds the result)"),
			},
			NewFn: func(p params.Params, seed int64) Accumulator {
				return &hopStatsAcc{sample: p.Int("sources"), seed: seed, wantMax: true}
			},
		},
		&FuncMetric{
			MetricName: "resilience",
			MetricParams: []params.Spec{
				intSpec("steps", 10, fptr(1), "removal fractions sampled per trial"),
				intSpec("trials", 3, fptr(1), "random removal orders averaged"),
			},
			NewFn: func(p params.Params, seed int64) Accumulator {
				return &resilienceAcc{steps: p.Int("steps"), trials: p.Int("trials"), seed: seed}
			},
		},
		&FuncMetric{
			MetricName: "lcc",
			MetricCaps: CapMasked,
			NewFn: func(params.Params, int64) Accumulator {
				return &lccAcc{}
			},
		},
		&FuncMetric{
			MetricName: "distortion",
			MetricParams: []params.Spec{
				intSpec("sample", 2000, nil, "graph edges sampled for tree-distance queries (<= 0 = all)"),
			},
			MetricCaps: CapGraph,
			NewFn: func(p params.Params, seed int64) Accumulator {
				return &distortionAcc{sample: p.Int("sample"), seed: seed}
			},
		},
		&FuncMetric{
			MetricName: "hierarchy-depth",
			MetricParams: []params.Spec{
				intSpec("root", -1, fptr(-1), "root node id (-1 = maximum-betweenness node)"),
			},
			MetricCaps: CapGraph,
			NewFn: func(p params.Params, _ int64) Accumulator {
				return &hierarchyAcc{root: p.Int("root")}
			},
		},
		&FuncMetric{
			MetricName: "spectral-gap",
			MetricParams: []params.Spec{
				intSpec("iters", 150, nil, "power-iteration steps (<= 0 = 200)"),
			},
			MetricCaps: CapConnected,
			NewFn: func(p params.Params, _ int64) Accumulator {
				return &spectralAcc{iters: p.Int("iters")}
			},
		},
		&FuncMetric{
			MetricName: "clustering",
			NewFn: func(params.Params, int64) Accumulator {
				return &clusteringAcc{}
			},
		},
		&FuncMetric{
			MetricName: "assortativity",
			MetricCaps: CapGraph,
			NewFn: func(params.Params, int64) Accumulator {
				return &assortativityAcc{}
			},
		},
		&FuncMetric{
			MetricName: "mean-degree",
			MetricCaps: CapMasked,
			NewFn: func(params.Params, int64) Accumulator {
				return &degreeAcc{stat: degMean}
			},
		},
		&FuncMetric{
			MetricName: "max-degree",
			NewFn: func(params.Params, int64) Accumulator {
				return &degreeAcc{stat: degMax}
			},
		},
		&FuncMetric{
			MetricName: "top-degree-frac",
			NewFn: func(params.Params, int64) Accumulator {
				return &degreeAcc{stat: degTopFrac}
			},
		},
		&FuncMetric{
			MetricName: "degree-cv",
			NewFn: func(params.Params, int64) Accumulator {
				return &degreeAcc{stat: degCV}
			},
		},
		&FuncMetric{
			MetricName: "nodes",
			NewFn: func(params.Params, int64) Accumulator {
				return &sizeAcc{edges: false}
			},
		},
		&FuncMetric{
			MetricName: "edges",
			NewFn: func(params.Params, int64) Accumulator {
				return &sizeAcc{edges: true}
			},
		},
	}
}

// chooseSources picks k deterministic BFS sources (all nodes when k <= 0
// or k >= n).
func chooseSources(n, k int, seed int64) []int {
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

// expansionAcc measures how rapidly BFS balls grow: the average, over
// sample source nodes, of the fraction of nodes reachable within h
// hops, for each h up to maxH. High expansion ⇒ the graph "spreads"
// quickly (low diameter); trees expand slowly, well-connected meshes
// fast. Value: Series is the curve over h = 0..maxH, Scalar its last
// point (the fraction within maxH hops).
type expansionAcc struct {
	maxH, sample int
	seed         int64
	n            int
	sources      []int
	rows         [][]int
}

func (a *expansionAcc) Sources(n int) []int {
	a.n = n
	a.sources = chooseSources(n, a.sample, a.seed)
	a.rows = make([][]int, len(a.sources))
	return a.sources
}

func (a *expansionAcc) Observe(slot, _ int, ws *graph.Workspace) {
	row := make([]int, a.maxH+1)
	for _, d := range ws.Hop[:a.n] {
		if d >= 0 && int(d) <= a.maxH {
			row[d]++
		}
	}
	a.rows[slot] = row
}

func (a *expansionAcc) Finalize() Value {
	if a.n == 0 || len(a.sources) == 0 {
		return Value{}
	}
	out := make([]float64, a.maxH+1)
	for _, row := range a.rows {
		acc := 0
		for h := 0; h <= a.maxH; h++ {
			acc += row[h]
			out[h] += float64(acc) / float64(a.n)
		}
	}
	for h := range out {
		out[h] /= float64(len(a.sources))
	}
	return Value{Scalar: out[len(out)-1], Series: out}
}

// hopStatsAcc consumes the shared BFS sweep for the hop-distance
// statistics: mean finite hop distance over the sampled sources
// (avg-hop-length) or the maximum finite eccentricity seen (diameter —
// with sources <= 0 this is the exact diameter of a connected graph
// and the largest within-component eccentricity of a disconnected one;
// sampling lower-bounds it). Unreachable pairs are excluded from both.
type hopStatsAcc struct {
	sample  int
	seed    int64
	wantMax bool
	n       int
	sums    []float64
	counts  []int
	maxes   []int32
}

func (a *hopStatsAcc) Sources(n int) []int {
	a.n = n
	srcs := chooseSources(n, a.sample, a.seed)
	a.sums = make([]float64, len(srcs))
	a.counts = make([]int, len(srcs))
	a.maxes = make([]int32, len(srcs))
	return srcs
}

func (a *hopStatsAcc) Observe(slot, _ int, ws *graph.Workspace) {
	sum := 0.0
	count := 0
	max := int32(0)
	for _, d := range ws.Hop[:a.n] {
		if d > 0 {
			sum += float64(d)
			count++
			if d > max {
				max = d
			}
		}
	}
	a.sums[slot], a.counts[slot], a.maxes[slot] = sum, count, max
}

func (a *hopStatsAcc) Finalize() Value {
	if a.wantMax {
		best := int32(0)
		for _, m := range a.maxes {
			if m > best {
				best = m
			}
		}
		return Value{Scalar: float64(best)}
	}
	total := 0.0
	count := 0
	for i, s := range a.sums {
		total += s
		count += a.counts[i]
	}
	if count == 0 {
		return Value{}
	}
	return Value{Scalar: total / float64(count)}
}

// lccFrac is the shared masked-LCC kernel call: the largest surviving
// connected component as a fraction of the original node count. The
// resilience metric and every robustness sweep go through it.
func lccFrac(ws *graph.Workspace, c *graph.CSR, removed []bool) float64 {
	return float64(c.LargestComponentMasked(ws, removed, nil)) / float64(c.NumNodes())
}

// lccAcc reports the largest-component fraction; masked evaluation is
// the unit of every attack/failure sweep.
type lccAcc struct {
	val Value
}

func (a *lccAcc) Run(ctx context.Context, src *Source, _ int) error {
	if err := errs.Ctx(ctx); err != nil {
		return err
	}
	c := src.CSR()
	n := c.NumNodes()
	if n == 0 {
		return nil
	}
	ws := graph.GetWorkspace(n)
	defer ws.Release()
	a.val = Value{Scalar: lccFrac(ws, c, make([]bool, n))}
	return nil
}

func (a *lccAcc) EvaluateMasked(ws *graph.Workspace, c *graph.CSR, removed []bool) float64 {
	return lccFrac(ws, c, removed)
}

func (a *lccAcc) Finalize() Value { return a.val }

// resilienceAcc measures how gracefully connectivity degrades under
// random node removal: the area under the curve of (largest component
// fraction) vs (fraction removed), estimated over `trials` random
// removal orders at `steps` removal fractions. 1.0 would mean the graph
// never fragments; lower is less resilient. Each trial incrementally
// extends one removal mask and re-measures through the shared
// masked-LCC kernel — no subgraph copies — and trials run in parallel.
type resilienceAcc struct {
	steps, trials int
	seed          int64
	val           Value
}

func (a *resilienceAcc) Run(ctx context.Context, src *Source, workers int) error {
	c := src.CSR()
	n := c.NumNodes()
	if n == 0 {
		return nil
	}
	perTrial := make([]float64, a.trials)
	err := par.ForEachErr(workers, a.trials, func(trial int) error {
		if err := errs.Ctx(ctx); err != nil {
			return err
		}
		r := rng.New(rng.Derive(a.seed, trial))
		perm := rng.Shuffle(r, n)
		ws := graph.GetWorkspace(n)
		defer ws.Release()
		removed := make([]bool, n)
		prev := 0
		sum := 0.0
		for s := 1; s <= a.steps; s++ {
			frac := float64(s) / float64(a.steps+1)
			k := int(frac * float64(n))
			for ; prev < k; prev++ {
				removed[perm[prev]] = true
			}
			sum += lccFrac(ws, c, removed)
		}
		perTrial[trial] = sum
		return nil
	})
	if err != nil {
		return err
	}
	total := 0.0
	for _, s := range perTrial {
		total += s
	}
	a.val = Value{Scalar: total / float64(a.steps*a.trials)}
	return nil
}

func (a *resilienceAcc) Finalize() Value { return a.val }

// distortionAcc measures how well the graph's own spanning structure
// preserves graph distances: following [30], the average, over edges of
// a minimum spanning tree, of the tree distance between the edge's
// endpoints. A tree has distortion 1; meshes with much redundancy have
// higher distortion. Needs CapGraph for the MST and edge list.
type distortionAcc struct {
	sample int
	seed   int64
	val    Value
}

func (a *distortionAcc) Run(ctx context.Context, src *Source, _ int) error {
	g := src.Graph()
	m := g.NumEdges()
	n := g.NumNodes()
	if m == 0 || n == 0 {
		return nil
	}
	if err := errs.Ctx(ctx); err != nil {
		return err
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
	depth, parent := rootForest(tree)
	// Sample non-tree edges (tree edges have distortion exactly 1).
	edges := make([]int, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, i)
	}
	if a.sample > 0 && a.sample < m {
		r := rng.New(a.seed)
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		edges = edges[:a.sample]
	}
	// Hop counts are integers, so the float sum is exact in any order.
	total := 0.0
	count := 0
	for _, id := range edges {
		e := g.Edge(id)
		if h := treeHops(depth, parent, int32(e.U), int32(e.V)); h > 0 {
			total += float64(h)
			count++
		}
	}
	if count == 0 {
		return nil
	}
	a.val = Value{Scalar: total / float64(count)}
	return nil
}

// rootForest roots every tree of the forest t at its smallest node id
// with one BFS per tree, returning each node's depth and tree parent
// (-1 at the roots).
func rootForest(t *graph.Graph) (depth, parent []int32) {
	n := t.NumNodes()
	depth = make([]int32, n)
	parent = make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	queue := make([]int32, 0, n)
	for root := 0; root < n; root++ {
		if depth[root] >= 0 {
			continue
		}
		depth[root], parent[root] = 0, -1
		queue = append(queue[:0], int32(root))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			t.Neighbors(int(u), func(v, _ int) {
				if depth[v] < 0 {
					depth[v], parent[v] = depth[u]+1, u
					queue = append(queue, int32(v))
				}
			})
		}
	}
	return depth, parent
}

// treeHops returns the hop distance between u and v in the rooted
// forest, depth(u) + depth(v) - 2·depth(lca), by walking both up to
// their lowest common ancestor; -1 when they lie in different trees.
func treeHops(depth, parent []int32, u, v int32) int32 {
	h := int32(0)
	for ; depth[u] > depth[v]; h++ {
		u = parent[u]
	}
	for ; depth[v] > depth[u]; h++ {
		v = parent[v]
	}
	for ; u != v; h += 2 {
		if parent[u] < 0 {
			return -1 // two distinct roots
		}
		u, v = parent[u], parent[v]
	}
	return h
}

func (a *distortionAcc) Finalize() Value { return a.val }

// hierarchyAcc classifies how tree-like / layered a rooted topology is:
// the mean depth of all nodes below the root divided by log2(n), so a
// balanced binary tree scores ~1, a star ~1/log2(n), and a path
// ~n/(2 log2 n). Root is the maximum-betweenness node when root < 0.
type hierarchyAcc struct {
	root int
	val  Value
}

func (a *hierarchyAcc) Run(ctx context.Context, src *Source, _ int) error {
	if err := errs.Ctx(ctx); err != nil {
		return err
	}
	g := src.Graph()
	n := g.NumNodes()
	if n < 2 {
		return nil
	}
	root := a.root
	if root >= n {
		return errs.BadParamf("metricreg: hierarchy-depth root %d out of range (n=%d)", root, n)
	}
	if root < 0 {
		bc, _, err := g.Betweenness(ctx)
		if err != nil {
			return err
		}
		root = 0
		for i, b := range bc {
			if b > bc[root] {
				root = i
			}
		}
	}
	ws := graph.GetWorkspace(n)
	defer ws.Release()
	src.CSR().BFS(ws, root)
	total, count := 0, 0
	for _, d := range ws.Hop[:n] {
		if d > 0 {
			total += int(d)
			count++
		}
	}
	if count == 0 {
		return nil
	}
	a.val = Value{Scalar: (float64(total) / float64(count)) / math.Log2(float64(n))}
	return nil
}

func (a *hierarchyAcc) Finalize() Value { return a.val }

// spectralAcc estimates the second-smallest eigenvalue of the
// normalized Laplacian (the algebraic connectivity proxy) via power
// iteration with deflation of the known top eigenvector. Larger gap ⇒
// better expansion / harder to cut. Reports 0 for disconnected or
// trivial topologies (CapConnected: the connectivity bit is computed
// once on the source and shared).
type spectralAcc struct {
	iters int
	val   Value
}

func (a *spectralAcc) Run(ctx context.Context, src *Source, _ int) error {
	if !src.Connected() {
		return nil
	}
	c := src.CSR()
	if c.NumNodes() < 2 {
		return nil
	}
	gap, err := spectralGap(ctx, c, a.iters)
	if err != nil {
		return err
	}
	a.val = Value{Scalar: gap}
	return nil
}

// spectralGap runs the power iteration behind spectralAcc on c, which
// must have at least two nodes; it reports 0 when the iteration
// degenerates.
func spectralGap(ctx context.Context, c *graph.CSR, iters int) (float64, error) {
	n := c.NumNodes()
	if iters <= 0 {
		iters = 200
	}
	// We find the second-largest eigenvalue mu of the normalized adjacency
	// walk matrix N = D^-1/2 A D^-1/2 by power iteration with deflation of
	// the known top eigenvector v1(i) = sqrt(deg_i). Then lambda2 = 1 - mu.
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
	// Deterministic pseudo-random start vector.
	x := make([]float64, n)
	r := rng.New(12345)
	for i := range x {
		x[i] = r.Float64() - 0.5
	}
	y := make([]float64, n)
	xs := make([]float64, n) // x[u] / sqrt(deg u)
	var mu float64
	for it := 0; it < iters; it++ {
		if err := errs.Ctx(ctx); err != nil {
			return 0, err
		}
		// Deflate: x ← x - (v1·x) v1.
		dot := 0.0
		for i := range x {
			dot += x[i] * v1[i]
		}
		for i := range x {
			x[i] -= dot * v1[i]
		}
		// y = (N + I)/2 * x  — shift to make all eigenvalues non-negative,
		// preserving order. (N's spectrum lies in [-1, 1].) Each y[v]
		// gathers (x[u]·invSqrtDeg[u])·invSqrtDeg[v] over v's sorted row:
		// the terms, in the order, of a scatter over u = 0..n-1.
		for u := range xs {
			xs[u] = x[u] * invSqrtDeg[u]
		}
		for v := range y {
			w, acc := invSqrtDeg[v], 0.0
			for _, u := range c.SortedRow(v) {
				acc += xs[u] * w
			}
			y[v] = acc
		}
		for i := range y {
			y[i] = (y[i] + x[i]) / 2
		}
		// Rayleigh quotient for (N+I)/2, then undo the shift.
		num, den := 0.0, 0.0
		for i := range y {
			num += y[i] * x[i]
			den += x[i] * x[i]
		}
		if den == 0 {
			return 0, nil
		}
		shifted := num / den
		mu = 2*shifted - 1
		// Normalize and continue.
		ynorm := 0.0
		for i := range y {
			ynorm += y[i] * y[i]
		}
		ynorm = math.Sqrt(ynorm)
		if ynorm == 0 {
			return 0, nil
		}
		for i := range y {
			x[i] = y[i] / ynorm
		}
	}
	return max(1-mu, 0), nil
}

func (a *spectralAcc) Finalize() Value { return a.val }

// clusteringAcc computes the average local clustering coefficient: for
// each node with degree >= 2, the fraction of neighbour pairs that are
// themselves adjacent, averaged over such nodes. Parallel edges are
// collapsed for the purpose of counting distinct neighbours. Runs
// CSR-only.
type clusteringAcc struct {
	val Value
}

func (a *clusteringAcc) Run(ctx context.Context, src *Source, _ int) error {
	if err := errs.Ctx(ctx); err != nil {
		return err
	}
	if cc, ok := avgClustering(src.CSR()); ok {
		a.val = Value{Scalar: cc}
	}
	return nil
}

// avgClustering returns the average local clustering coefficient of c,
// with ok false when no node has two distinct neighbours. It marks u's
// distinct neighbours, then counts each marked id in each neighbour's
// deduplicated sorted row, which finds every linked neighbour pair
// twice.
func avgClustering(c *graph.CSR) (float64, bool) {
	n := c.NumNodes()
	mark := make([]int32, n) // mark[w] == u+1: w neighbours u
	total := 0.0
	counted := 0
	for u := 0; u < n; u++ {
		row := c.SortedRow(u)
		deg := 0
		for i, w := range row {
			if i == 0 || w != row[i-1] {
				mark[w] = int32(u + 1)
				deg++
			}
		}
		if deg < 2 {
			continue
		}
		links := 0
		for i, a := range row {
			if i > 0 && a == row[i-1] {
				continue
			}
			nr := c.SortedRow(int(a))
			for j, b := range nr {
				if (j == 0 || b != nr[j-1]) && mark[b] == int32(u+1) {
					links++
				}
			}
		}
		total += float64(links) / (float64(deg) * float64(deg-1))
		counted++
	}
	if counted == 0 {
		return 0, false
	}
	return total / float64(counted), true
}

func (a *clusteringAcc) Finalize() Value { return a.val }

// assortativityAcc computes the Pearson correlation of degrees at edge
// endpoints (Newman's r); 0 where undefined (fewer than 2 edges or zero
// variance). Needs CapGraph for the edge list — the summation order
// over whole edges is part of the pinned numerical contract.
type assortativityAcc struct {
	val Value
}

func (a *assortativityAcc) Run(ctx context.Context, src *Source, _ int) error {
	if err := errs.Ctx(ctx); err != nil {
		return err
	}
	g := src.Graph()
	m := g.NumEdges()
	if m < 2 {
		return nil
	}
	deg := g.Degrees()
	var sumXY, sumX, sumY, sumX2, sumY2 float64
	for _, e := range g.Edges() {
		// Each undirected edge contributes both orientations so the
		// statistic is symmetric.
		x, y := float64(deg[e.U]), float64(deg[e.V])
		sumXY += 2 * x * y
		sumX += x + y
		sumY += x + y
		sumX2 += x*x + y*y
		sumY2 += x*x + y*y
	}
	n := float64(2 * m)
	cov := sumXY/n - (sumX/n)*(sumY/n)
	varX := sumX2/n - (sumX/n)*(sumX/n)
	varY := sumY2/n - (sumY/n)*(sumY/n)
	if varX <= 0 || varY <= 0 {
		return nil
	}
	a.val = Value{Scalar: cov / math.Sqrt(varX*varY)}
	return nil
}

func (a *assortativityAcc) Finalize() Value { return a.val }

// degreeAcc computes degree-sequence statistics straight off the CSR
// row index. mean-degree additionally supports masked evaluation: the
// mean surviving degree counting only edges between surviving nodes.
type degStat int

const (
	degMean degStat = iota
	degMax
	degTopFrac
	degCV
)

type degreeAcc struct {
	stat degStat
	val  Value
}

func (a *degreeAcc) Run(ctx context.Context, src *Source, _ int) error {
	if err := errs.Ctx(ctx); err != nil {
		return err
	}
	c := src.CSR()
	n := c.NumNodes()
	if n == 0 {
		return nil
	}
	sum, max := 0, 0
	for i := 0; i < n; i++ {
		d := c.Degree(i)
		sum += d
		if d > max {
			max = d
		}
	}
	switch a.stat {
	case degMean:
		a.val = Value{Scalar: float64(sum) / float64(n)}
	case degMax:
		a.val = Value{Scalar: float64(max)}
	case degTopFrac:
		if n > 1 {
			a.val = Value{Scalar: float64(max) / float64(n-1)}
		}
	case degCV:
		// Mean over n, sample variance over n-1.
		mean := float64(sum) / float64(n)
		ss := 0.0
		for i := 0; i < n; i++ {
			d := float64(c.Degree(i)) - mean
			ss += d * d
		}
		variance := 0.0
		if n > 1 {
			variance = ss / float64(n-1)
		}
		if mean > 0 {
			a.val = Value{Scalar: math.Sqrt(variance) / mean}
		}
	}
	return nil
}

func (a *degreeAcc) EvaluateMasked(ws *graph.Workspace, c *graph.CSR, removed []bool) float64 {
	alive, halves := 0, 0
	for u := 0; u < c.NumNodes(); u++ {
		if removed[u] {
			continue
		}
		alive++
		c.Neighbors(u, func(v, _ int, _ float64) {
			if !removed[v] {
				halves++
			}
		})
	}
	if alive == 0 {
		return 0
	}
	return float64(halves) / float64(alive)
}

func (a *degreeAcc) Finalize() Value { return a.val }

// sizeAcc reports the snapshot's node or edge count.
type sizeAcc struct {
	edges bool
	val   Value
}

func (a *sizeAcc) Run(ctx context.Context, src *Source, _ int) error {
	if err := errs.Ctx(ctx); err != nil {
		return err
	}
	if a.edges {
		a.val = Value{Scalar: float64(src.CSR().NumEdges())}
	} else {
		a.val = Value{Scalar: float64(src.CSR().NumNodes())}
	}
	return nil
}

func (a *sizeAcc) Finalize() Value { return a.val }
