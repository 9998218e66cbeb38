package hotgen

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scenario"
)

// Kernel parity suite: the direction-optimizing BFS and the bucketed
// Dijkstra must be bit-for-bit interchangeable with the reference
// kernels (BFSTopDown, DijkstraHeap) on every topology model of the
// repository — including masked variants, i.e. the subgraphs the
// robustness sweeps actually traverse after an attack has removed the
// highest-degree nodes. Run under -race -shuffle=on in CI.

type parityModel struct {
	name  string
	build func(seed int64) (*graph.Graph, error)
}

func parityModels() []parityModel {
	return []parityModel{
		{"ba", func(seed int64) (*graph.Graph, error) {
			return gen.BarabasiAlbertContext(context.Background(), 400, 2, seed)
		}},
		{"er-gnm", func(seed int64) (*graph.Graph, error) {
			return gen.ErdosRenyiGNMContext(context.Background(), 400, 900, seed)
		}},
		{"waxman", func(seed int64) (*graph.Graph, error) {
			return gen.WaxmanContext(context.Background(), 300, 0.1, 0.5, seed)
		}},
		{"fkp", func(seed int64) (*graph.Graph, error) {
			return core.FKPContext(context.Background(), core.FKPConfig{N: 300, Alpha: 8, Seed: seed})
		}},
	}
}

// geoModels are small geographic designs for the goal-directed
// single-target search, drawn through the scenario registry: HOT, ISP,
// the multi-ISP internet (whose co-located customers add zero-length,
// zero-weight edges) and the SONET ring design. parityModels already
// holds FKP and Waxman, which run it too, and BA and ER, which do not.
func geoModels() []parityModel {
	byName := func(name string, p scenario.Params) func(seed int64) (*graph.Graph, error) {
		return func(seed int64) (*graph.Graph, error) {
			q := scenario.Params{"seed": float64(seed)}
			for k, v := range p {
				q[k] = v
			}
			return scenario.Default().GenerateByName(context.Background(), name, q)
		}
	}
	return []parityModel{
		{"hot", byName("hot", scenario.Params{"n": 300, "links": 2})},
		{"isp", byName("isp", scenario.Params{"cities": 8, "pops": 4, "customers": 250})},
		{"internet", byName("internet", scenario.Params{"cities": 8, "isps": 3, "pops": 3, "customers": 60})},
		{"ring", byName("ring", scenario.Params{"n": 250})},
	}
}

// raceEnabled is set by race_test.go when the tests run under the race
// detector.
var raceEnabled bool

// originCopy returns a copy of g with every node at the origin, which
// leaves no positive-length edge and so no goal-directed search.
func originCopy(g *graph.Graph) *graph.Graph {
	o := g.Clone()
	for i := 0; i < o.NumNodes(); i++ {
		o.Node(i).X, o.Node(i).Y = 0, 0
	}
	return o
}

// degreeMask returns the ids of the ceil(frac*n) highest-degree nodes
// (ties by id), the schedule a degree-targeted attack removes first.
func degreeMask(g *graph.Graph, frac float64) []int {
	n := g.NumNodes()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	deg := g.Degrees()
	sort.Slice(ids, func(a, b int) bool {
		if deg[ids[a]] != deg[ids[b]] {
			return deg[ids[a]] > deg[ids[b]]
		}
		return ids[a] < ids[b]
	})
	k := int(math.Ceil(frac * float64(n)))
	return append([]int(nil), ids[:k]...)
}

func checkKernelParity(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	c := g.Freeze()
	n := c.NumNodes()
	ref := graph.GetWorkspace(n)
	defer ref.Release()
	ws := graph.GetWorkspace(n)
	defer ws.Release()
	stride := n/12 + 1
	for src := 0; src < n; src += stride {
		c.BFSTopDown(ref, src)
		c.BFS(ws, src)
		refReach, reach := 0, 0
		for v := 0; v < n; v++ {
			if ref.Hop[v] != ws.Hop[v] {
				t.Fatalf("%s src %d: hop[%d] = %d dir-opt vs %d top-down", label, src, v, ws.Hop[v], ref.Hop[v])
			}
			if ref.Parent[v] != ws.Parent[v] {
				t.Fatalf("%s src %d: bfs parent[%d] = %d dir-opt vs %d top-down", label, src, v, ws.Parent[v], ref.Parent[v])
			}
			if ref.Hop[v] >= 0 {
				refReach++
			}
			if ws.Hop[v] >= 0 {
				reach++
			}
		}
		if refReach != reach {
			t.Fatalf("%s src %d: component size %d dir-opt vs %d top-down", label, src, reach, refReach)
		}

		c.DijkstraHeap(ref, src)
		c.Dijkstra(ws, src)
		for v := 0; v < n; v++ {
			if ref.Dist[v] != ws.Dist[v] {
				t.Fatalf("%s src %d: dist[%d] = %v bucketed vs %v heap", label, src, v, ws.Dist[v], ref.Dist[v])
			}
			if ref.Parent[v] != ws.Parent[v] || ref.ParentEdge[v] != ws.ParentEdge[v] {
				t.Fatalf("%s src %d: sp tree at %d = (%d,%d) bucketed vs (%d,%d) heap",
					label, src, v, ws.Parent[v], ws.ParentEdge[v], ref.Parent[v], ref.ParentEdge[v])
			}
		}
	}
}

func TestKernelParityAcrossModels(t *testing.T) {
	for _, m := range parityModels() {
		for _, seed := range []int64{1, 2} {
			g, err := m.build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", m.name, seed, err)
			}
			checkKernelParity(t, m.name, g)

			// Masked variant: the post-attack residual graph after the top
			// 10% of nodes by degree are gone — typically fragmented, so
			// this also covers multi-component traversal.
			sub, _ := g.RemoveNodes(degreeMask(g, 0.10))
			checkKernelParity(t, m.name+"/masked", sub)
		}
	}
	// One larger graph, so each Dijkstra bucket window holds hundreds of
	// nodes rather than a handful.
	g, err := gen.BarabasiAlbertContext(context.Background(), 30_000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkKernelParity(t, "ba-30k", g)
}

// checkBFSVariantsParity pins the sharded parallel bottom-up BFS at
// worker counts 1/2/8 to the serial direction-optimizing traversal:
// hops, parents, and the bottom-up level count, bit for bit.
func checkBFSVariantsParity(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	c := g.Freeze()
	n := c.NumNodes()
	if n == 0 {
		return
	}
	ref := graph.GetWorkspace(n)
	defer ref.Release()
	ws := graph.GetWorkspace(n)
	defer ws.Release()

	stride := n/10 + 1
	for src := 0; src < n; src += stride {
		c.BFS(ref, src)
		for _, w := range []int{1, 2, 8} {
			c.BFSParallel(ws, src, w)
			if ws.BFSBottomUpLevels != ref.BFSBottomUpLevels {
				t.Fatalf("%s/par%d src %d: %d bottom-up levels, serial dir-opt %d",
					label, w, src, ws.BFSBottomUpLevels, ref.BFSBottomUpLevels)
			}
			for u := 0; u < n; u++ {
				if ref.Hop[u] != ws.Hop[u] || ref.Parent[u] != ws.Parent[u] {
					t.Fatalf("%s/par%d src %d: node %d = (hop %d, parent %d), serial dir-opt (%d, %d)",
						label, w, src, u, ws.Hop[u], ws.Parent[u], ref.Hop[u], ref.Parent[u])
				}
			}
		}
	}
}

func TestParallelBFSParityAcrossModels(t *testing.T) {
	for _, m := range parityModels() {
		for _, seed := range []int64{1, 2} {
			g, err := m.build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", m.name, seed, err)
			}
			checkBFSVariantsParity(t, m.name, g)
			sub, _ := g.RemoveNodes(degreeMask(g, 0.10))
			checkBFSVariantsParity(t, m.name+"/masked", sub)
		}
	}
}

// checkBFSCertificate verifies one BFS result from src against the
// graph alone, reading only CSR.Neighbors: hop[src] = 0 with no parent;
// no edge joins a reached node to an unreached one; the ends of every
// edge differ by at most one hop; every other reached node's parent is
// its smallest-id neighbour one hop closer; unreached nodes hold -1/-1.
// Together these prove the hops are exact distances and the parents
// follow the tie-break contract, in O(n+m) and independently of how
// the kernel traversed.
func checkBFSCertificate(t *testing.T, label string, c *graph.CSR, src int, hop, parent []int32) {
	t.Helper()
	if hop[src] != 0 || parent[src] != -1 {
		t.Fatalf("%s src %d: source holds (hop %d, parent %d), want (0, -1)", label, src, hop[src], parent[src])
	}
	for v := 0; v < c.NumNodes(); v++ {
		if hop[v] < 0 {
			if hop[v] != -1 || parent[v] != -1 {
				t.Fatalf("%s src %d: unreached node %d holds (hop %d, parent %d), want (-1, -1)", label, src, v, hop[v], parent[v])
			}
			continue
		}
		best := int32(-1) // smallest-id neighbour one hop closer
		c.Neighbors(v, func(u, _ int, _ float64) {
			switch {
			case hop[u] < 0:
				t.Fatalf("%s src %d: edge %d-%d joins a reached node to an unreached one", label, src, v, u)
			case hop[u] > hop[v]+1 || hop[u] < hop[v]-1:
				t.Fatalf("%s src %d: edge %d-%d spans hops %d and %d", label, src, v, u, hop[v], hop[u])
			case hop[u] == hop[v]-1 && (best < 0 || int32(u) < best):
				best = int32(u)
			}
		})
		if v != src && (best < 0 || parent[v] != best) {
			t.Fatalf("%s src %d: node %d (hop %d) has parent %d, want smallest closer neighbour %d", label, src, v, hop[v], parent[v], best)
		}
	}
}

// TestBFSCertificateAcrossModels checks every BFS entry point against
// the certificate above, from a spread of sources, on the plain and the
// degree-masked graph of each model.
func TestBFSCertificateAcrossModels(t *testing.T) {
	kernels := []struct {
		name string
		run  func(c *graph.CSR, ws *graph.Workspace, src int)
	}{
		{"BFS", (*graph.CSR).BFS},
		{"BFSTopDown", (*graph.CSR).BFSTopDown},
		{"BFSParallel/2", func(c *graph.CSR, ws *graph.Workspace, src int) { c.BFSParallel(ws, src, 2) }},
		{"BFSParallel/8", func(c *graph.CSR, ws *graph.Workspace, src int) { c.BFSParallel(ws, src, 8) }},
	}
	for _, m := range parityModels() {
		for _, seed := range []int64{1, 2} {
			g, err := m.build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", m.name, seed, err)
			}
			sub, _ := g.RemoveNodes(degreeMask(g, 0.10))
			for _, variant := range []struct {
				name string
				g    *graph.Graph
			}{{"plain", g}, {"masked", sub}} {
				c := variant.g.Freeze()
				n := c.NumNodes()
				ws := graph.GetWorkspace(n)
				for _, k := range kernels {
					label := fmt.Sprintf("%s/seed=%d/%s/%s", m.name, seed, variant.name, k.name)
					for src := 0; src < n; src += n/40 + 1 {
						k.run(c, ws, src)
						checkBFSCertificate(t, label, c, src, ws.Hop[:n], ws.Parent[:n])
					}
				}
				ws.Release()
			}
		}
	}
}

// checkSPCertificate verifies one full Dijkstra result from src against
// the graph alone, reading only CSR.Neighbors: Dist[src] = 0 with no
// parent; Dist[v] <= Dist[u]+w on every half-edge; every other reached
// node's parent edge joins it to its parent and is tight; Parent[v] is
// the smallest-id tight neighbour and ParentEdge[v] the smallest tight
// edge id from it; Dist[v] is Inf exactly when Parent[v] is -1; and
// every reached node is reached from src along tight edges. The tight
// paths bound each distance from above and the edge inequalities from
// below, so the distances are exact, and the parents follow the
// tie-break contract, in O(n+m) and independently of the kernel.
func checkSPCertificate(t *testing.T, label string, c *graph.CSR, src int, dist []float64, parent, parentEdge []int32) {
	t.Helper()
	n := c.NumNodes()
	if dist[src] != 0 || parent[src] != -1 || parentEdge[src] != -1 {
		t.Fatalf("%s src %d: source holds (%v, %d, %d), want (0, -1, -1)", label, src, dist[src], parent[src], parentEdge[src])
	}
	for v := 0; v < n; v++ {
		if v != src && math.IsInf(dist[v], 1) != (parent[v] == -1) {
			t.Fatalf("%s src %d: node %d holds dist %v with parent %d", label, src, v, dist[v], parent[v])
		}
		if math.IsInf(dist[v], 1) && parentEdge[v] != -1 {
			t.Fatalf("%s src %d: unreached node %d has parent edge %d", label, src, v, parentEdge[v])
		}
		bestU, bestE := -1, -1 // smallest tight (neighbour, edge)
		c.Neighbors(v, func(u, e int, w float64) {
			if dist[u]+w < dist[v] {
				t.Fatalf("%s src %d: edge %d (%d-%d, w %v) shortens dist[%d] %v via dist[%d] %v", label, src, e, u, v, w, v, dist[v], u, dist[u])
			}
			if dist[u]+w == dist[v] && (bestU < 0 || u < bestU || (u == bestU && e < bestE)) {
				bestU, bestE = u, e
			}
		})
		if v == src || math.IsInf(dist[v], 1) {
			continue
		}
		if int(parent[v]) != bestU || int(parentEdge[v]) != bestE {
			t.Fatalf("%s src %d: node %d has parent (%d, edge %d), want the smallest tight (%d, edge %d)", label, src, v, parent[v], parentEdge[v], bestU, bestE)
		}
	}
	// Every reached node must hang off src by tight edges; a zero-weight
	// parent cycle alone could otherwise hold a too-small distance.
	onTight := make([]bool, n)
	onTight[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		c.Neighbors(u, func(v, _ int, w float64) {
			if !onTight[v] && dist[u]+w == dist[v] {
				onTight[v] = true
				queue = append(queue, v)
			}
		})
	}
	for v := 0; v < n; v++ {
		if !math.IsInf(dist[v], 1) && !onTight[v] {
			t.Fatalf("%s src %d: node %d (dist %v) is on no tight path from the source", label, src, v, dist[v])
		}
	}
}

// unitCopy returns a copy of g with every edge weight set to 1. The
// models' Euclidean weights almost never tie, so only such a copy puts
// the Dijkstra tie-break under test.
func unitCopy(g *graph.Graph) *graph.Graph {
	unit := g.Clone()
	for i := range unit.Edges() {
		unit.Edge(i).Weight = 1
	}
	return unit
}

// TestSPCertificateAcrossModels checks every full Dijkstra entry point
// against the certificate above, from a spread of sources, on the plain
// and the degree-masked graph of each model, and on a unit-weight copy.
func TestSPCertificateAcrossModels(t *testing.T) {
	kernels := []struct {
		name string
		run  func(c *graph.CSR, ws *graph.Workspace, src int)
	}{
		{"Dijkstra", (*graph.CSR).Dijkstra},
		{"DijkstraHeap", (*graph.CSR).DijkstraHeap},
	}
	for _, m := range parityModels() {
		for _, seed := range []int64{1, 2} {
			g, err := m.build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", m.name, seed, err)
			}
			sub, _ := g.RemoveNodes(degreeMask(g, 0.10))
			for _, variant := range []struct {
				name string
				g    *graph.Graph
			}{{"plain", g}, {"masked", sub}, {"unit", unitCopy(g)}} {
				c := variant.g.Freeze()
				n := c.NumNodes()
				ws := graph.GetWorkspace(n)
				for _, k := range kernels {
					label := fmt.Sprintf("%s/seed=%d/%s/%s", m.name, seed, variant.name, k.name)
					for src := 0; src < n; src += n/40 + 1 {
						k.run(c, ws, src)
						checkSPCertificate(t, label, c, src, ws.Dist[:n], ws.Parent[:n], ws.ParentEdge[:n])
					}
				}
				ws.Release()
			}
		}
	}
}

// largestComponent is the size of g's largest connected component (0
// for the empty graph), from the builder graph's own component labels.
func largestComponent(g *graph.Graph) int {
	_, sizes := g.ConnectedComponents()
	best := 0
	for _, s := range sizes {
		best = max(best, s)
	}
	return best
}

// TestMaskedLCCTrajectoryMatchesSubgraphs walks a degree-attack removal
// schedule on each model and pins the masked LCC kernel (what the
// robustness sweeps measure) to materialized residual subgraphs.
func TestMaskedLCCTrajectoryMatchesSubgraphs(t *testing.T) {
	for _, m := range parityModels() {
		g, err := m.build(1)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		c := g.Freeze()
		ws := graph.GetWorkspace(c.NumNodes())
		defer ws.Release()
		removed := make([]bool, g.NumNodes())
		for _, frac := range []float64{0, 0.05, 0.2, 0.5} {
			ids := degreeMask(g, frac)
			for i := range removed {
				removed[i] = false
			}
			for _, u := range ids {
				removed[u] = true
			}
			sub, _ := g.RemoveNodes(ids)
			if got, want := c.LargestComponentMasked(ws, removed, nil), largestComponent(sub); got != want {
				t.Fatalf("%s frac %v: masked LCC %d vs subgraph %d", m.name, frac, got, want)
			}
		}
	}
}

// disjointUnion returns g beside a relabelled copy of itself, so node
// v+n is unreachable from every node v < n.
func disjointUnion(g *graph.Graph) *graph.Graph {
	n := g.NumNodes()
	out := graph.New(2 * n)
	for k := 0; k < 2; k++ {
		for i := 0; i < n; i++ {
			out.AddNode(*g.Node(i))
		}
	}
	for k := 0; k < 2; k++ {
		for _, e := range g.Edges() {
			e.U, e.V = e.U+k*n, e.V+k*n
			out.AddEdge(e)
		}
	}
	return out
}

// TestDijkstraToParityAcrossModels pins the target-bounded Dijkstra to
// certified labels on every model and geographic design, plain, on a
// unit-weight copy that keeps the coordinates, and on a copy with every
// node at the origin: the heap reference run from each source must pass
// checkSPCertificate, and at each target DijkstraTo's Dist and whole
// Parent/ParentEdge chain back to the source must equal the reference,
// bit for bit. Target sets: one far node, a source-adjacent node, a node
// in the other component of a two-component graph, four nodes scattered
// over the source's component, and all nodes. The three single-node sets
// run the bidirectional kernel, goal-directed on the local designs; the
// scattered set is the shape routing and the traffic metrics hand the
// bucketed kernel, which stops once its targets settle.
func TestDijkstraToParityAcrossModels(t *testing.T) {
	for _, m := range append(parityModels(), geoModels()...) {
		for _, seed := range []int64{1, 2} {
			g, err := m.build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", m.name, seed, err)
			}
			for _, variant := range []struct {
				name string
				g    *graph.Graph
			}{{"plain", g}, {"unit", unitCopy(g)}, {"origin", originCopy(g)}} {
				n := variant.g.NumNodes()
				c := disjointUnion(variant.g).Freeze()
				all := make([]int, 2*n)
				for i := range all {
					all[i] = i
				}
				ref := graph.GetWorkspace(2 * n)
				ws := graph.GetWorkspace(2 * n)
				for src := 0; src < n; src += n/8 + 1 {
					label := fmt.Sprintf("%s/seed=%d/%s", m.name, seed, variant.name)
					c.DijkstraHeap(ref, src)
					checkSPCertificate(t, label, c, src, ref.Dist[:2*n], ref.Parent[:2*n], ref.ParentEdge[:2*n])
					sets := map[string][]int{
						"far":         {(src + n/2) % n},
						"unreachable": {src + n},
						"scattered":   {(src + n/5) % n, (src + 2*n/5) % n, (src + 3*n/5) % n, (src + 4*n/5) % n},
						"all":         all,
					}
					c.Neighbors(src, func(v, _ int, _ float64) { sets["adjacent"] = []int{v} })
					for name, targets := range sets {
						c.DijkstraTo(ws, src, targets)
						for _, tg := range targets {
							for v, hops := int32(tg), 0; v >= 0 && hops <= 2*n; v, hops = ref.Parent[v], hops+1 {
								if ws.Dist[v] != ref.Dist[v] || ws.Parent[v] != ref.Parent[v] || ws.ParentEdge[v] != ref.ParentEdge[v] {
									t.Fatalf("%s src %d %s: chain of %d at node %d = (%v, %d, %d), certified (%v, %d, %d)",
										label, src, name, tg, v, ws.Dist[v], ws.Parent[v], ws.ParentEdge[v],
										ref.Dist[v], ref.Parent[v], ref.ParentEdge[v])
								}
							}
						}
					}
				}
				ref.Release()
				ws.Release()
			}
		}
	}
}

// TestDijkstraToSingleTargetModelPairs runs single-target DijkstraTo
// for every ordered pair of nodes on each geographic design: the heap
// reference run from each source must pass checkSPCertificate, and each
// target's Dist and whole Parent/ParentEdge chain must equal it bit for
// bit. Their plain snapshots run the goal-directed search. The race
// detector, which slows the test about tenfold, checks every seventh
// source.
func TestDijkstraToSingleTargetModelPairs(t *testing.T) {
	stride := 1
	if raceEnabled {
		stride = 7
	}
	models := append(geoModels(), parityModels()[2:]...) // + waxman, fkp
	for _, m := range models {
		g, err := m.build(1)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		{
			c := g.Freeze()
			n := c.NumNodes()
			ref := graph.GetWorkspace(n)
			ws := graph.GetWorkspace(n)
			label := m.name
			target := make([]int, 1)
			for src := 0; src < n; src += stride {
				c.DijkstraHeap(ref, src)
				checkSPCertificate(t, label, c, src, ref.Dist[:n], ref.Parent[:n], ref.ParentEdge[:n])
				for tg := 0; tg < n; tg++ {
					if tg == src {
						continue
					}
					target[0] = tg
					c.DijkstraTo(ws, src, target)
					for v, hops := int32(tg), 0; v >= 0 && hops <= n; v, hops = ref.Parent[v], hops+1 {
						if ws.Dist[v] != ref.Dist[v] || ws.Parent[v] != ref.Parent[v] || ws.ParentEdge[v] != ref.ParentEdge[v] {
							t.Fatalf("%s %d->%d: chain node %d = (%v, %d, %d), certified (%v, %d, %d)",
								label, src, tg, v, ws.Dist[v], ws.Parent[v], ws.ParentEdge[v],
								ref.Dist[v], ref.Parent[v], ref.ParentEdge[v])
						}
					}
				}
			}
			ref.Release()
			ws.Release()
		}
	}
}
