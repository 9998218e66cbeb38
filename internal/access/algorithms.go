package access

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/rng"
)

// MMPIncremental solves the instance with the randomized incremental
// cost-distance heuristic in the spirit of Meyerson–Munagala–Plotkin
// (paper reference [24]): customers arrive in random order; each arriving
// customer attaches to the existing network node j minimizing
//
//	installFactor * dist(i, j)  +  usage-cost-to-root(j) * demand_i
//
// i.e. a tradeoff between building new last-mile cable and riding the
// accumulated (cheap, bulk) cables toward the root. The first term is the
// incremental construction cost, the second the marginal routing cost —
// exactly the cost-distance metric. After the arrival pass, flows are
// aggregated bottom-up and every edge gets the cheapest adequate cable
// configuration.
//
// The output is a spanning tree of root + customers by construction.
func MMPIncremental(in *Instance, seed int64) (*Network, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(seed)
	g := newNetworkSkeleton(in)
	n := len(in.Customers)

	// usage[s] is the per-unit-flow cost of carrying demand from the node
	// in attach slot s (0 the root, s the s-th attached customer) to the
	// root along current tree edges, priced at the *cheapest* per unit
	// usage rate (δ_K) — the incremental algorithm's optimistic estimate
	// of bulk transport cost once cables are upgraded. The attachment
	// index keys candidates by slot, so ties go to the node attached
	// first.
	deltaBulk := in.Catalog[len(in.Catalog)-1].Usage
	sigmaThin := in.Catalog[0].Install
	locs := customerPoints(in)
	ix := geom.NewIndex(geom.Bounds(in.Root, locs), n+1, usageTrack)
	ix.Add(0, in.Root, &[geom.IndexStats]float64{})
	slotNode := append(make([]int, 0, n+1), 0)
	slotPt := append(make([]geom.Point, 0, n+1), in.Root)
	usage := append(make([]float64, 0, n+1), 0)
	best := geom.NewCandList(1)
	var loc geom.Point
	var dem float64
	eval := func(slot int32) {
		d := loc.Dist(slotPt[slot])
		best.Consider(int(slot), sigmaThin*d+(usage[slot]+deltaBulk*d)*dem)
	}

	order := rng.Shuffle(r, n)
	for _, ci := range order {
		v := ci + 1 // graph id of customer ci
		loc, dem = locs[ci], in.Customers[ci].Demand
		best.Reset()
		statW := [geom.IndexStats]float64{slotUsage: dem}
		ix.Search(loc, sigmaThin+deltaBulk*dem, &statW, math.Inf(1), false, best, eval)
		s := best.Best()[0].ID
		d := loc.Dist(slotPt[s])
		g.AddEdge(graph.Edge{U: slotNode[s], V: v, Weight: d, Cable: -1})
		u := usage[s] + deltaBulk*d
		ix.Add(int32(len(slotNode)), loc, &[geom.IndexStats]float64{slotUsage: u})
		slotNode = append(slotNode, v)
		slotPt = append(slotPt, loc)
		usage = append(usage, u)
	}
	net, err := finishTree(in, g)
	if err != nil {
		return nil, err
	}
	net.evals, net.cells = ix.Evals(), ix.Cells()
	return net, nil
}

// slotUsage is the attachment-index stat slot holding a node's usage cost
// to the root, fixed once the node attaches.
const slotUsage = 0

// usageTrack tracks slotUsage only.
var usageTrack = [geom.IndexStats]bool{slotUsage: true}

// SampleAndAugment solves the instance with the stage-based randomized
// sample-and-augment scheme (the constant-factor single-sink buy-at-bulk
// template): level ℓ keeps each surviving customer independently with
// probability p, promoted survivors become "hubs" of the next level;
// every non-survivor attaches to its nearest survivor (or the root).
// Levels correspond to cable tiers: the deeper the level, the fatter the
// aggregated flow and the thicker the optimal cable. The top level
// connects hubs plus the root by a Euclidean MST.
//
// Output is a spanning tree of root + customers.
func SampleAndAugment(in *Instance, seed int64, p float64) (*Network, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if p <= 0 || p >= 1 {
		return nil, errs.BadParamf("access: sampling probability %v out of (0,1)", p)
	}
	r := rng.New(seed)
	g := newNetworkSkeleton(in)
	n := len(in.Customers)
	region := geom.Bounds(in.Root, customerPoints(in))

	level := make([]int, n+1) // 0 for customers initially
	survivors := make([]int, 0, n)
	for v := 1; v <= n; v++ {
		survivors = append(survivors, v)
	}
	levels := len(in.Catalog)
	for l := 1; l < levels && len(survivors) > 1; l++ {
		next := survivors[:0:0]
		for _, v := range survivors {
			if r.Float64() < p {
				next = append(next, v)
				level[v] = l
			}
		}
		if len(next) == 0 {
			// Guarantee progress: promote one uniformly at random.
			keep := survivors[r.Intn(len(survivors))]
			next = append(next, keep)
			level[keep] = l
		}
		// Attach the non-promoted to their nearest promoted hub (ties to
		// the hub promoted first) or to the root, whichever is closer.
		pts := make([]geom.Point, len(next))
		hubs := geom.NewGrid(region, len(next))
		for i, v := range next {
			pts[i] = in.Customers[v-1].Loc
			hubs.Add(int32(i), pts[i])
		}
		var loc geom.Point
		dist2 := func(i int32) float64 { return loc.Dist2(pts[i]) }
		for _, v := range survivors {
			if level[v] >= l {
				continue
			}
			loc = in.Customers[v-1].Loc
			hi, hd2 := hubs.Nearest(loc, dist2)
			target, td := next[hi], math.Sqrt(hd2)
			if rd := loc.Dist(in.Root); rd < td {
				target, td = 0, rd
			}
			g.AddEdge(graph.Edge{U: target, V: v, Weight: td, Cable: -1})
		}
		survivors = next
	}
	// Top level: MST over survivors + root.
	xs := make([]float64, len(survivors)+1)
	ys := make([]float64, len(survivors)+1)
	ids := make([]int, len(survivors)+1)
	xs[0], ys[0], ids[0] = in.Root.X, in.Root.Y, 0
	for i, v := range survivors {
		nd := g.Node(v)
		xs[i+1], ys[i+1] = nd.X, nd.Y
		ids[i+1] = v
	}
	for _, pr := range graph.EuclideanMST(xs, ys) {
		u, v := ids[pr[0]], ids[pr[1]]
		d := math.Hypot(xs[pr[0]]-xs[pr[1]], ys[pr[0]]-ys[pr[1]])
		g.AddEdge(graph.Edge{U: u, V: v, Weight: d, Cable: -1})
	}
	return finishTree(in, g)
}

// SingleCableMST is the naive baseline that ignores economies of scale:
// build the Euclidean MST over root + customers and install only the
// thinnest cable type (in parallel as needed for capacity).
func SingleCableMST(in *Instance) (*Network, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	g := newNetworkSkeleton(in)
	n := g.NumNodes()
	xs := make([]float64, n)
	ys := make([]float64, n)
	for v := 0; v < n; v++ {
		nd := g.Node(v)
		xs[v], ys[v] = nd.X, nd.Y
	}
	for _, pr := range graph.EuclideanMST(xs, ys) {
		d := math.Hypot(xs[pr[0]]-xs[pr[1]], ys[pr[0]]-ys[pr[1]])
		g.AddEdge(graph.Edge{U: pr[0], V: pr[1], Weight: d, Cable: -1})
	}
	if !g.IsTree() {
		return nil, fmt.Errorf("access: MST construction failed")
	}
	// Cost with only cable type 0.
	thinOnly := Catalog{in.Catalog[0]}
	tmp := &Instance{Root: in.Root, Customers: in.Customers, Catalog: thinOnly}
	return finishTree(tmp, g)
}

// DirectStar is the opposite baseline: a dedicated straight cable from
// every customer to the root (no sharing), each with its cheapest
// adequate configuration.
func DirectStar(in *Instance) (*Network, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	g := newNetworkSkeleton(in)
	for i, c := range in.Customers {
		g.AddEdge(graph.Edge{U: 0, V: i + 1, Weight: c.Loc.Dist(in.Root), Cable: -1})
	}
	return finishTree(in, g)
}

// KMeans is weighted Lloyd's algorithm over points with the given
// weights; it returns k centers. Deterministic given the seed. Exposed
// for the ISP designer's POP placement.
func KMeans(pts []geom.Point, weights []float64, k int, seed int64, iters int) []geom.Point {
	if len(pts) == 0 || k < 1 {
		return nil
	}
	if k > len(pts) {
		k = len(pts)
	}
	r := rng.New(seed)
	// k-means++ style seeding: first uniform, rest distance-weighted.
	centers := make([]geom.Point, 0, k)
	centers = append(centers, pts[r.Intn(len(pts))])
	d2 := make([]float64, len(pts))
	for len(centers) < k {
		total := 0.0
		for i, p := range pts {
			best := math.Inf(1)
			for _, c := range centers {
				if d := p.Dist2(c); d < best {
					best = d
				}
			}
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			d2[i] = best * w
			total += d2[i]
		}
		if total == 0 {
			centers = append(centers, pts[r.Intn(len(pts))])
			continue
		}
		u := r.Float64() * total
		acc := 0.0
		pick := len(pts) - 1
		for i, d := range d2 {
			acc += d
			if u < acc {
				pick = i
				break
			}
		}
		centers = append(centers, pts[pick])
	}
	assign := make([]int, len(pts))
	for it := 0; it < iters; it++ {
		changed := false
		for i, p := range pts {
			best, bestD := 0, math.Inf(1)
			for ci, c := range centers {
				if d := p.Dist2(c); d < bestD {
					best, bestD = ci, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		var sx, sy, sw []float64
		sx = make([]float64, k)
		sy = make([]float64, k)
		sw = make([]float64, k)
		for i, p := range pts {
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			sx[assign[i]] += p.X * w
			sy[assign[i]] += p.Y * w
			sw[assign[i]] += w
		}
		for ci := range centers {
			if sw[ci] > 0 {
				centers[ci] = geom.Point{X: sx[ci] / sw[ci], Y: sy[ci] / sw[ci]}
			}
		}
		if !changed {
			break
		}
	}
	return centers
}

func customerPoints(in *Instance) []geom.Point {
	pts := make([]geom.Point, len(in.Customers))
	for i, c := range in.Customers {
		pts[i] = c.Loc
	}
	return pts
}

// AugmentTwoEdgeConnected adds straight-line edges to a solved tree
// network so it becomes 2-edge-connected — the paper's footnote 7: "adding
// a path redundancy requirement breaks the tree structure of the optimal
// solution." Leaves are paired in DFS order (the classical tree
// augmentation that 2-edge-connects a tree with ⌈L/2⌉ edges), then any
// remaining bridges are covered greedily. Flows and cable assignments of
// existing edges are kept; each new edge gets the thinnest cable. It
// returns the number of edges added.
func AugmentTwoEdgeConnected(in *Instance, net *Network) int {
	g := net.Graph
	if g.NumNodes() < 3 {
		return 0
	}
	added := 0
	addEdge := func(u, v int) {
		nu, nv := g.Node(u), g.Node(v)
		d := geom.Point{X: nu.X, Y: nu.Y}.Dist(geom.Point{X: nv.X, Y: nv.Y})
		g.AddEdge(graph.Edge{U: u, V: v, Weight: d, Cable: 0})
		net.Flow = append(net.Flow, 0)
		net.CableKind = append(net.CableKind, 0)
		net.CableCount = append(net.CableCount, 1)
		net.InstallCost += in.Catalog[0].Install * d
		added++
	}
	// DFS-order the leaves.
	var leaves []int
	visited := make([]bool, g.NumNodes())
	stack := []int{0}
	visited[0] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if g.Degree(u) == 1 && u != 0 {
			leaves = append(leaves, u)
		}
		var next []int
		g.Neighbors(u, func(v, _ int) {
			if !visited[v] {
				visited[v] = true
				next = append(next, v)
			}
		})
		sort.Ints(next)
		stack = append(stack, next...)
	}
	half := len(leaves) / 2
	for i := 0; i < half; i++ {
		addEdge(leaves[i], leaves[i+half])
	}
	if len(leaves)%2 == 1 && len(leaves) > 0 {
		addEdge(leaves[len(leaves)-1], 0)
	}
	// Cover remaining bridges: connect one endpoint's subtree leaf-most
	// node back to the root until bridge-free.
	for guard := 0; guard < g.NumNodes(); guard++ {
		bridges := g.BridgeEdges()
		if len(bridges) == 0 {
			break
		}
		e := g.Edge(bridges[0])
		far := e.V
		if far == 0 {
			far = e.U
		}
		addEdge(far, 0)
	}
	return added
}
