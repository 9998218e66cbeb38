package attackreg

import (
	"context"
	"math"
	"sort"

	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/params"
	"repro/internal/rng"
)

func init() {
	for _, a := range builtins() {
		if err := Register(a); err != nil {
			panic(err)
		}
	}
}

func builtins() []Attack {
	return []Attack{
		&FuncAttack{
			AttackName:   "random-failure",
			AttackTarget: Nodes,
			AttackCaps:   CapRandomized,
			Fn: func(ctx context.Context, g *graph.Graph, _ params.Params, seed int64) ([]int, error) {
				if err := errs.Ctx(ctx); err != nil {
					return nil, err
				}
				return rng.Shuffle(rng.New(seed), g.NumNodes()), nil
			},
		},
		&FuncAttack{
			AttackName:   "degree",
			AttackTarget: Nodes,
			Fn: func(ctx context.Context, g *graph.Graph, _ params.Params, _ int64) ([]int, error) {
				if err := errs.Ctx(ctx); err != nil {
					return nil, err
				}
				deg := g.Degrees()
				return orderByScoreDesc(len(deg), func(v int) float64 { return float64(deg[v]) }), nil
			},
		},
		&FuncAttack{
			AttackName:   "adaptive-degree",
			AttackTarget: Nodes,
			AttackCaps:   CapAdaptive,
			Fn: func(ctx context.Context, g *graph.Graph, _ params.Params, _ int64) ([]int, error) {
				return adaptiveDegreeOrder(ctx, g)
			},
		},
		&FuncAttack{
			AttackName:   "betweenness",
			AttackTarget: Nodes,
			Fn: func(ctx context.Context, g *graph.Graph, _ params.Params, _ int64) ([]int, error) {
				if err := errs.Ctx(ctx); err != nil {
					return nil, err
				}
				bc := g.Betweenness()
				return orderByScoreDesc(len(bc), func(v int) float64 { return bc[v] }), nil
			},
		},
		&FuncAttack{
			AttackName:   "random-edge",
			AttackTarget: Edges,
			AttackCaps:   CapRandomized,
			Fn: func(ctx context.Context, g *graph.Graph, _ params.Params, seed int64) ([]int, error) {
				if err := errs.Ctx(ctx); err != nil {
					return nil, err
				}
				return rng.Shuffle(rng.New(seed), g.NumEdges()), nil
			},
		},
		&FuncAttack{
			AttackName:   "bottleneck-edge",
			AttackTarget: Edges,
			Fn: func(ctx context.Context, g *graph.Graph, _ params.Params, _ int64) ([]int, error) {
				bc, err := edgeBetweenness(ctx, g)
				if err != nil {
					return nil, err
				}
				return orderByScoreDesc(len(bc), func(e int) float64 { return bc[e] }), nil
			},
		},
		&FuncAttack{
			AttackName: "geographic",
			AttackParams: []params.Spec{
				{Name: "x", Kind: params.Float, Default: 0.5, Help: "epicenter x coordinate"},
				{Name: "y", Kind: params.Float, Default: 0.5, Help: "epicenter y coordinate"},
			},
			AttackTarget: Nodes,
			Fn: func(ctx context.Context, g *graph.Graph, p params.Params, _ int64) ([]int, error) {
				if err := errs.Ctx(ctx); err != nil {
					return nil, err
				}
				epi := geom.Point{X: p.Float("x"), Y: p.Float("y")}
				n := g.NumNodes()
				// A localized disaster: nodes fall in growing distance from
				// the epicenter, so removing the first k is knocking out the
				// k geographically nearest routers.
				return orderByScoreDesc(n, func(v int) float64 {
					nd := g.Node(v)
					return -epi.Dist(geom.Point{X: nd.X, Y: nd.Y})
				}), nil
			},
		},
		&FuncAttack{
			AttackName: "preferential",
			AttackParams: []params.Spec{
				{Name: "alpha", Kind: params.Float, Default: 1, Min: ptr(0.0), Max: ptr(16.0),
					Help: "degree bias exponent: failure probability ~ (degree+1)^alpha (0 = uniform)"},
			},
			AttackTarget: Nodes,
			AttackCaps:   CapRandomized,
			Fn: func(ctx context.Context, g *graph.Graph, p params.Params, seed int64) ([]int, error) {
				if err := errs.Ctx(ctx); err != nil {
					return nil, err
				}
				return preferentialOrder(g, p.Float("alpha"), seed), nil
			},
		},
	}
}

func ptr(v float64) *float64 { return &v }

// orderByScoreDesc returns ids [0, n) sorted by descending score with
// ties broken by ascending id — an explicit total order, so schedules
// never depend on sort stability or input permutation.
func orderByScoreDesc(n int, score func(int) float64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := score(order[a]), score(order[b])
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	return order
}

// adaptiveDegreeOrder greedily removes the node of highest residual
// degree, ties to the lowest id. Residual degrees live in a lazy
// max-heap keyed by (degree descending, id ascending): each decrement
// pushes the node's new key and leaves the old one behind, and a popped
// key that no longer matches its node's degree, or names a removed
// node, is skipped. Every key is one of the n initial pushes or one of
// at most m decrements (an edge decrements only the end removed last),
// so the order costs O((n+m) log(n+m)).
func adaptiveDegreeOrder(ctx context.Context, g *graph.Graph) ([]int, error) {
	n := g.NumNodes()
	deg := g.Degrees()
	removed := make([]bool, n)
	order := make([]int, 0, n)
	h := make(degreeHeap, 0, n)
	for v := 0; v < n; v++ {
		h.push(deg[v], v)
	}
	for len(order) < n {
		if len(order)%1024 == 0 {
			if err := errs.Ctx(ctx); err != nil {
				return nil, err
			}
		}
		d, best := h.pop()
		if removed[best] || d != deg[best] {
			continue
		}
		removed[best] = true
		order = append(order, best)
		g.Neighbors(best, func(u, _ int) {
			if !removed[u] {
				deg[u]--
				h.push(deg[u], u)
			}
		})
	}
	return order, nil
}

// degreeHeap is a binary max-heap of (degree, node) keys packed into
// one uint64: the degree in the high 32 bits and the complemented id in
// the low 32, so a larger key is a higher degree or, at equal degree, a
// smaller id.
type degreeHeap []uint64

func (h *degreeHeap) push(deg, v int) {
	*h = append(*h, uint64(deg)<<32|uint64(^uint32(v)))
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] >= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *degreeHeap) pop() (deg, v int) {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(s) {
			break
		}
		if c+1 < len(s) && s[c+1] > s[c] {
			c++
		}
		if s[i] >= s[c] {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return int(top >> 32), int(^uint32(top))
}

// preferentialOrder samples a removal order without replacement with
// per-node weight (degree+1)^alpha, via the Efraimidis–Spirakis
// exponential-key trick: one uniform draw per node (in id order, so the
// stream is schedule-independent), key = ln(u)/w, sort descending. The
// hubs a preferential process built are the ones a preferential failure
// process takes out first — probabilistically, unlike the deterministic
// degree attack.
func preferentialOrder(g *graph.Graph, alpha float64, seed int64) []int {
	n := g.NumNodes()
	r := rng.New(seed)
	key := make([]float64, n)
	for v := 0; v < n; v++ {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		w := math.Pow(float64(g.Degree(v)+1), alpha)
		key[v] = math.Log(u) / w
	}
	return orderByScoreDesc(n, func(v int) float64 { return key[v] })
}

// edgeBetweenness computes exact edge betweenness centrality on the
// unweighted graph with Brandes' algorithm (each unordered pair counted
// once), the edge analogue of graph.Betweenness. Cancellation is
// checked between source expansions.
func edgeBetweenness(ctx context.Context, g *graph.Graph) ([]float64, error) {
	n := g.NumNodes()
	bc := make([]float64, g.NumEdges())
	sigma := make([]float64, n)
	dist := make([]int, n)
	delta := make([]float64, n)
	type pred struct{ v, e int }
	preds := make([][]pred, n)
	stack := make([]int, 0, n)
	queue := make([]int, 0, n)

	for s := 0; s < n; s++ {
		if s%64 == 0 {
			if err := errs.Ctx(ctx); err != nil {
				return nil, err
			}
		}
		for i := 0; i < n; i++ {
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		stack = stack[:0]
		queue = queue[:0]
		sigma[s] = 1
		dist[s] = 0
		queue = append(queue, s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			stack = append(stack, u)
			g.Neighbors(u, func(v, e int) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], pred{u, e})
				}
			})
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, pr := range preds[w] {
				c := sigma[pr.v] / sigma[w] * (1 + delta[w])
				bc[pr.e] += c
				delta[pr.v] += c
			}
		}
	}
	// Each unordered pair was counted twice (once per endpoint as source).
	for i := range bc {
		bc[i] /= 2
	}
	return bc, nil
}
