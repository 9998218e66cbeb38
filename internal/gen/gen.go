// Package gen implements the descriptive/degree-based topology generators
// the paper contrasts against (its references [1,7,21,23,33]): Erdős–Rényi
// random graphs, Waxman's geographic random graph, Barabási–Albert
// preferential attachment, GLP (generalized linear preference), a GT-ITM
// style transit-stub hierarchy, and a random geometric graph.
//
// These are the baselines for experiment E7: each matches some observed
// Internet statistics by construction, yet — as the paper argues — they
// are evocative rather than explanatory, and diverge from the HOT outputs
// on the metrics they were not tuned to.
package gen

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/rng"
)

// ErdosRenyiGNPContext samples G(n, p): each of the C(n,2) edges present
// independently with probability p.
// Cancellation is checked once per source row of the pair loop.
func ErdosRenyiGNPContext(ctx context.Context, n int, p float64, seed int64) (*graph.Graph, error) {
	if n < 0 || p < 0 || p > 1 {
		return nil, errs.BadParamf("gen: bad G(n,p) parameters n=%d p=%v", n, p)
	}
	r := rng.New(seed)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{X: r.Float64(), Y: r.Float64()})
	}
	for u := 0; u < n; u++ {
		if err := errs.Ctx(ctx); err != nil {
			return nil, fmt.Errorf("gen: G(n,p): %w", err)
		}
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.AddEdge(graph.Edge{U: u, V: v, Weight: 1})
			}
		}
	}
	g.EuclideanWeights()
	return g, nil
}

// ErdosRenyiGNMContext samples G(n, m): exactly m distinct edges uniformly at
// random. m is clamped to C(n,2).
// Cancellation is checked periodically while drawing edges.
func ErdosRenyiGNMContext(ctx context.Context, n, m int, seed int64) (*graph.Graph, error) {
	if n < 0 || m < 0 {
		return nil, errs.BadParamf("gen: bad G(n,m) parameters n=%d m=%d", n, m)
	}
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	r := rng.New(seed)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{X: r.Float64(), Y: r.Float64()})
	}
	seen := make(map[[2]int]bool, m)
	for g.NumEdges() < m {
		if g.NumEdges()%1024 == 0 {
			if err := errs.Ctx(ctx); err != nil {
				return nil, fmt.Errorf("gen: G(n,m): %w", err)
			}
		}
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if seen[key] {
			continue
		}
		seen[key] = true
		g.AddEdge(graph.Edge{U: u, V: v, Weight: 1})
	}
	g.EuclideanWeights()
	return g, nil
}

// WaxmanContext samples the classic Waxman geographic random graph: nodes are
// uniform in the unit square and edge (u,v) appears with probability
// beta * exp(-d(u,v) / (alpha * L)), L the maximum possible distance.
// Cancellation is checked once per source row of the pair loop.
func WaxmanContext(ctx context.Context, n int, alpha, beta float64, seed int64) (*graph.Graph, error) {
	if n < 0 || alpha <= 0 || beta <= 0 || beta > 1 {
		return nil, errs.BadParamf("gen: bad Waxman parameters n=%d alpha=%v beta=%v", n, alpha, beta)
	}
	r := rng.New(seed)
	g := graph.New(n)
	pts := geom.UnitSquare.RandomPoints(r, n)
	for _, p := range pts {
		g.AddNode(graph.Node{X: p.X, Y: p.Y})
	}
	l := geom.UnitSquare.Diagonal()
	for u := 0; u < n; u++ {
		if err := errs.Ctx(ctx); err != nil {
			return nil, fmt.Errorf("gen: Waxman: %w", err)
		}
		for v := u + 1; v < n; v++ {
			d := pts[u].Dist(pts[v])
			if r.Float64() < beta*math.Exp(-d/(alpha*l)) {
				g.AddEdge(graph.Edge{U: u, V: v, Weight: d})
			}
		}
	}
	return g, nil
}

// BarabasiAlbertContext grows a preferential-attachment graph: each arriving
// node connects to m existing nodes chosen with probability proportional
// to their current degree. The seed graph is a star on m+1 nodes, so
// every arrival can find m distinct targets.
// Cancellation is checked at every arrival.
func BarabasiAlbertContext(ctx context.Context, n, m int, seed int64) (*graph.Graph, error) {
	if m < 1 || n < m+1 {
		return nil, errs.BadParamf("gen: BA requires m >= 1 and n >= m+1 (n=%d m=%d)", n, m)
	}
	r := rng.New(seed)
	g := graph.New(n)
	for i := 0; i <= m; i++ {
		g.AddNode(graph.Node{X: r.Float64(), Y: r.Float64()})
	}
	// Repeated-endpoint list implements degree-proportional sampling.
	var ends []int
	for i := 1; i <= m; i++ {
		g.AddEdge(graph.Edge{U: 0, V: i, Weight: 1})
		ends = append(ends, 0, i)
	}
	for i := m + 1; i < n; i++ {
		if err := errs.Ctx(ctx); err != nil {
			return nil, fmt.Errorf("gen: BA at arrival %d: %w", i, err)
		}
		id := g.AddNode(graph.Node{X: r.Float64(), Y: r.Float64()})
		seen := map[int]bool{}
		targets := make([]int, 0, m)
		for len(targets) < m {
			t := ends[r.Intn(len(ends))]
			if t != id && !seen[t] {
				seen[t] = true
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			g.AddEdge(graph.Edge{U: t, V: id, Weight: 1})
			ends = append(ends, t, id)
		}
	}
	g.EuclideanWeights()
	return g, nil
}

// GLPContext grows a Generalized Linear Preference graph (Bu & Towsley, the
// paper's reference [8]): with probability p an arriving step adds m new
// links between existing nodes, otherwise it adds a new node with m
// links; targets are chosen with probability proportional to
// (degree - beta), beta < 1 tuning the preference strength.
// Cancellation is checked at every growth step.
func GLPContext(ctx context.Context, n, m int, p, beta float64, seed int64) (*graph.Graph, error) {
	if m < 1 || n < m+1 || p < 0 || p >= 1 || beta >= 1 {
		return nil, errs.BadParamf("gen: bad GLP parameters n=%d m=%d p=%v beta=%v", n, m, p, beta)
	}
	r := rng.New(seed)
	g := graph.New(n)
	for i := 0; i <= m; i++ {
		g.AddNode(graph.Node{X: r.Float64(), Y: r.Float64()})
	}
	for i := 1; i <= m; i++ {
		g.AddEdge(graph.Edge{U: 0, V: i, Weight: 1})
	}
	pick := func(exclude int) int {
		// Weight degree-beta; all degrees >= 1 in this growth process, and
		// beta < 1 keeps weights positive.
		nn := g.NumNodes()
		weights := make([]float64, nn)
		for u := 0; u < nn; u++ {
			if u == exclude {
				continue
			}
			weights[u] = float64(g.Degree(u)) - beta
			if weights[u] < 0 {
				weights[u] = 0
			}
		}
		return rng.WeightedChoice(r, weights)
	}
	for g.NumNodes() < n {
		if err := errs.Ctx(ctx); err != nil {
			return nil, fmt.Errorf("gen: GLP: %w", err)
		}
		if r.Float64() < p {
			// Add m internal links.
			for k := 0; k < m; k++ {
				u := pick(-1)
				v := pick(u)
				if u != v && !g.HasEdge(u, v) {
					g.AddEdge(graph.Edge{U: u, V: v, Weight: 1})
				}
			}
			continue
		}
		id := g.AddNode(graph.Node{X: r.Float64(), Y: r.Float64()})
		added := map[int]bool{}
		for len(added) < m {
			t := pick(id)
			if t != id && !added[t] {
				added[t] = true
				g.AddEdge(graph.Edge{U: t, V: id, Weight: 1})
			}
		}
	}
	g.EuclideanWeights()
	return g, nil
}

// TransitStubConfig parameterizes the GT-ITM style two-level hierarchy.
type TransitStubConfig struct {
	TransitDomains  int     // number of transit (backbone) domains
	TransitSize     int     // routers per transit domain
	StubsPerTransit int     // stub domains hanging off each transit router
	StubSize        int     // routers per stub domain
	EdgeProb        float64 // intra-domain extra edge probability
	Seed            int64
}

// TransitStubContext generates a GT-ITM style transit-stub topology ([33]): a
// connected random mesh of transit domains; each transit router sponsors
// StubsPerTransit stub domains; domains are internally connected (random
// spanning tree + extra random edges with EdgeProb).
// Cancellation is checked per transit router while sponsoring stub
// domains.
func TransitStubContext(ctx context.Context, cfg TransitStubConfig) (*graph.Graph, error) {
	if cfg.TransitDomains < 1 || cfg.TransitSize < 1 || cfg.StubsPerTransit < 0 || cfg.StubSize < 1 {
		return nil, errs.BadParamf("gen: bad transit-stub config %+v", cfg)
	}
	if cfg.EdgeProb < 0 || cfg.EdgeProb > 1 {
		return nil, errs.BadParamf("gen: bad transit-stub edge probability %v", cfg.EdgeProb)
	}
	r := rng.New(cfg.Seed)
	g := graph.New(0)

	// makeDomain creates a connected random domain at a geographic
	// anchor and returns its node ids.
	makeDomain := func(size int, kind graph.NodeKind, anchor geom.Point, spread float64) []int {
		ids := make([]int, size)
		pts := geom.UnitSquare.GaussianCluster(r, anchor, spread, size)
		for i := 0; i < size; i++ {
			ids[i] = g.AddNode(graph.Node{Kind: kind, X: pts[i].X, Y: pts[i].Y})
		}
		// Random spanning tree.
		perm := rng.Shuffle(r, size)
		for i := 1; i < size; i++ {
			u, v := ids[perm[i]], ids[perm[r.Intn(i)]]
			g.AddEdge(graph.Edge{U: u, V: v, Weight: 1})
		}
		// Extra intra-domain edges.
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if !g.HasEdge(ids[i], ids[j]) && r.Float64() < cfg.EdgeProb {
					g.AddEdge(graph.Edge{U: ids[i], V: ids[j], Weight: 1})
				}
			}
		}
		return ids
	}

	// Transit domains.
	transit := make([][]int, cfg.TransitDomains)
	anchors := geom.UnitSquare.RandomPoints(r, cfg.TransitDomains)
	for d := range transit {
		transit[d] = makeDomain(cfg.TransitSize, graph.KindCore, anchors[d], 0.03)
	}
	// Connect transit domains in a random tree plus one redundant link
	// per extra domain pair with EdgeProb.
	for d := 1; d < cfg.TransitDomains; d++ {
		o := r.Intn(d)
		u := transit[d][r.Intn(cfg.TransitSize)]
		v := transit[o][r.Intn(cfg.TransitSize)]
		g.AddEdge(graph.Edge{U: u, V: v, Weight: 1})
	}
	// Stub domains per transit router.
	for d := range transit {
		for _, tr := range transit[d] {
			if err := errs.Ctx(ctx); err != nil {
				return nil, fmt.Errorf("gen: transit-stub: %w", err)
			}
			for s := 0; s < cfg.StubsPerTransit; s++ {
				node := g.Node(tr)
				anchor := geom.Point{X: node.X, Y: node.Y}
				stub := makeDomain(cfg.StubSize, graph.KindCustomer, anchor, 0.02)
				gw := stub[r.Intn(len(stub))]
				g.AddEdge(graph.Edge{U: tr, V: gw, Weight: 1})
			}
		}
	}
	g.EuclideanWeights()
	return g, nil
}

// ConfigurationModelContext samples a simple graph whose degree sequence
// matches the target as closely as possible: stub matching with
// rejection of self-loops and duplicate edges, followed by edge-swap
// repair for leftover stubs. This is the purest "descriptive" generator
// — it matches the degree distribution *exactly* and nothing else —
// which makes it the sharpest instance of the paper's §1 critique.
//
// The sum of degrees must be even (one stub is dropped otherwise, with
// Stats.DroppedStubs reporting it); the realized sequence may differ
// from the target by a few stubs when the sequence is hard to realize
// simply (counted in DroppedStubs).
// Cancellation is checked between the matching and repair phases.
func ConfigurationModelContext(ctx context.Context, degrees []int, seed int64) (*graph.Graph, int, error) {
	n := len(degrees)
	if n == 0 {
		return nil, 0, errs.BadParamf("gen: empty degree sequence")
	}
	total := 0
	for i, d := range degrees {
		if d < 0 {
			return nil, 0, errs.BadParamf("gen: negative degree at %d", i)
		}
		if d >= n {
			return nil, 0, errs.BadParamf("gen: degree %d at node %d impossible in a simple graph of %d nodes", d, i, n)
		}
		total += d
	}
	r := rng.New(seed)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{X: r.Float64(), Y: r.Float64()})
	}
	// Stub list.
	stubs := make([]int, 0, total)
	for v, d := range degrees {
		for k := 0; k < d; k++ {
			stubs = append(stubs, v)
		}
	}
	dropped := 0
	if len(stubs)%2 == 1 {
		stubs = stubs[:len(stubs)-1]
		dropped++
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	type pair [2]int
	seen := map[pair]bool{}
	var leftoverA, leftoverB []int
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u > v {
			u, v = v, u
		}
		if u == v || seen[pair{u, v}] {
			leftoverA = append(leftoverA, stubs[i])
			leftoverB = append(leftoverB, stubs[i+1])
			continue
		}
		seen[pair{u, v}] = true
		g.AddEdge(graph.Edge{U: u, V: v, Weight: 1})
	}
	if err := errs.Ctx(ctx); err != nil {
		return nil, 0, fmt.Errorf("gen: configuration model: %w", err)
	}
	// Repair leftovers by double edge swaps: pick a random existing edge
	// (x,y) and rewire (u,x),(v,y) when all four edges stay simple.
	for k := range leftoverA {
		u, v := leftoverA[k], leftoverB[k]
		repaired := false
		for attempt := 0; attempt < 200 && g.NumEdges() > 0; attempt++ {
			eid := r.Intn(g.NumEdges())
			e := g.Edge(eid)
			x, y := e.U, e.V
			if r.Intn(2) == 1 {
				x, y = y, x
			}
			a1, b1 := ordered(u, x)
			a2, b2 := ordered(v, y)
			ox0, oy0 := ordered(x, y)
			// The sampled edge must still be present (earlier repairs may
			// have rewired it away), and the rewiring must stay simple.
			if !seen[pair{ox0, oy0}] || u == x || v == y ||
				seen[pair{a1, b1}] || seen[pair{a2, b2}] {
				continue
			}
			// Remove (x,y) logically by marking; the graph has no edge
			// removal, so rebuild below. Track swaps instead.
			ox, oy := ordered(x, y)
			delete(seen, pair{ox, oy})
			seen[pair{a1, b1}] = true
			seen[pair{a2, b2}] = true
			repaired = true
			break
		}
		if !repaired {
			dropped += 2
		}
	}
	// Rebuild the graph from the final edge set (cheaper than tracking
	// removals in-place).
	out := graph.New(n)
	for i := 0; i < n; i++ {
		out.AddNode(*g.Node(i))
	}
	keys := make([]pair, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		out.AddEdge(graph.Edge{U: k[0], V: k[1], Weight: 1})
	}
	out.EuclideanWeights()
	return out, dropped, nil
}

func ordered(a, b int) (int, int) {
	if a > b {
		return b, a
	}
	return a, b
}

// InetLikeContext generates a topology the way Inet (the paper's reference
// [21]) does: draw a degree sequence from a truncated discrete power law
// with exponent alpha and minimum degree 1, realize it with the
// configuration model, then patch connectivity by linking smaller
// components to the largest one (attaching at their highest-degree
// nodes, as Inet's spanning-tree phase effectively does).
// Cancellation is threaded through the underlying configuration-model
// realization.
func InetLikeContext(ctx context.Context, n int, alpha float64, seed int64) (*graph.Graph, error) {
	if n < 3 {
		return nil, errs.BadParamf("gen: InetLike needs n >= 3 (n=%d)", n)
	}
	if alpha <= 1 {
		return nil, errs.BadParamf("gen: InetLike needs alpha > 1 (alpha=%v)", alpha)
	}
	r := rng.New(seed)
	maxDeg := n / 4
	if maxDeg < 3 {
		maxDeg = 3
	}
	// Truncated zeta CDF over [1, maxDeg].
	weights := make([]float64, maxDeg)
	total := 0.0
	for k := 1; k <= maxDeg; k++ {
		weights[k-1] = math.Pow(float64(k), -alpha)
		total += weights[k-1]
	}
	cdf := make([]float64, maxDeg)
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cdf[i] = acc
	}
	degrees := make([]int, n)
	sum := 0
	for i := range degrees {
		u := r.Float64()
		lo, hi := 0, maxDeg-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		degrees[i] = lo + 1
		sum += degrees[i]
	}
	if sum%2 == 1 {
		degrees[0]++
	}
	g, _, err := ConfigurationModelContext(ctx, degrees, rng.Derive(seed, 1))
	if err != nil {
		return nil, err
	}
	// Connectivity patch: join every smaller component's max-degree node
	// to the giant component's max-degree node.
	label, sizes := g.ConnectedComponents()
	if len(sizes) > 1 {
		giant := 0
		for id, s := range sizes {
			if s > sizes[giant] {
				giant = id
			}
		}
		maxOf := make([]int, len(sizes))
		for i := range maxOf {
			maxOf[i] = -1
		}
		for v := 0; v < g.NumNodes(); v++ {
			id := label[v]
			if maxOf[id] == -1 || g.Degree(v) > g.Degree(maxOf[id]) {
				maxOf[id] = v
			}
		}
		for id := range sizes {
			if id != giant && maxOf[id] >= 0 {
				g.AddEdge(graph.Edge{U: maxOf[id], V: maxOf[giant], Weight: 1})
			}
		}
		g.EuclideanWeights()
	}
	return g, nil
}

// RandomGeometricContext connects all pairs of n uniform points within the given
// radius — the simplest "technology reach" null model.
// Cancellation is checked once per source node.
func RandomGeometricContext(ctx context.Context, n int, radius float64, seed int64) (*graph.Graph, error) {
	if n < 0 || radius < 0 {
		return nil, errs.BadParamf("gen: bad RGG parameters n=%d radius=%v", n, radius)
	}
	r := rng.New(seed)
	pts := geom.UnitSquare.RandomPoints(r, n)
	g := graph.New(n)
	for _, p := range pts {
		g.AddNode(graph.Node{X: p.X, Y: p.Y})
	}
	grid := geom.NewGrid(geom.UnitSquare, n)
	for u, p := range pts {
		grid.Add(int32(u), p)
	}
	r2 := radius * radius
	var nbrs []int32
	for u, p := range pts {
		if err := errs.Ctx(ctx); err != nil {
			return nil, fmt.Errorf("gen: RGG: %w", err)
		}
		nbrs = nbrs[:0]
		grid.Near(p, radius, func(v int32) {
			if int(v) > u && p.Dist2(pts[v]) <= r2 {
				nbrs = append(nbrs, v)
			}
		})
		slices.Sort(nbrs)
		for _, v := range nbrs {
			g.AddEdge(graph.Edge{U: u, V: int(v), Weight: p.Dist(pts[v])})
		}
	}
	return g, nil
}
