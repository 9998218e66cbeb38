package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// CSR is an immutable compressed-sparse-row snapshot of a Graph: every
// half-edge of node u lives in the contiguous range
// [rowStart[u], rowStart[u+1]), with the neighbour id, the originating
// edge index, and the edge weight stored in parallel flat arrays. The
// layout is cache-friendly (one pointer dereference per traversal instead
// of one per adjacency list) and safe for concurrent use: all traversal
// kernels take a caller-owned Workspace and never mutate the CSR.
//
// Indices are explicit int32: a snapshot holds at most MaxCSRNodes nodes
// and MaxCSRHalfEdges half-edges (directed edge slots), which Freeze
// guards with a documented panic. That bounds a 10^7-node, 3x10^7-edge
// snapshot to ~1 GB and keeps the hot arrays half the width of int64.
//
// Freeze a graph once, then fan any number of Dijkstra/BFS calls out
// across goroutines, each with its own pooled Workspace. This is the
// compute substrate under internal/routing, internal/metrics and
// internal/robust.
//
// Shortest-path-tree determinism contract: for both BFS and Dijkstra,
// whenever several parents are tie-optimal the kernels resolve the tie
// the same documented way — Parent[v] is the smallest-id neighbour u
// achieving the optimal distance to v (and ParentEdge[v] the smallest
// edge id among parallel (u,v) edges on a weight tie). The rule is a
// property of the graph alone, not of traversal order, so the
// direction-optimizing BFS, the bucketed Dijkstra, and the reference
// kernels (BFSTopDown, DijkstraHeap) all produce bit-identical trees.
// Across zero-weight edges the rule can make two nodes at the same
// distance each other's parent, so a parent walk must bound its length.
//
// Geometric snapshots: Freeze measures κ, the least weight/length ratio
// over positive-length edges (1 on every generator here, which weight
// edges by Euclidean length), and the locality of the edges, their mean
// weight over κ times the RMS distance between node pairs. A local
// snapshot (locality below goalLocality: HOT, FKP, ISP, internet, mmp,
// ring, Waxman) with κ > 0 keeps its node coordinates, and
// single-target DijkstraTo on it is goal-directed (see dijkstraBidir).
// Every other snapshot keeps no coordinates and runs the undirected
// search; there is no option.
type CSR struct {
	n        int
	m        int
	rowStart []int32
	nbr      []int32
	edgeID   []int32
	weight   []float64

	// bfsNbr mirrors nbr with each row sorted ascending by neighbour id.
	// The BFS kernels traverse it instead of nbr: the bottom-up step can
	// then claim a node at its first frontier neighbour and still honour
	// the smallest-id parent contract, and the sorted rows scan with
	// fewer cache-line switches on id-clustered generators.
	bfsNbr []int32

	// minW/maxW summarize the weight range (0/0 for edgeless snapshots);
	// bucketOK records whether the bucketed Dijkstra applies: weights
	// all finite, non-negative, not NaN, with maxW > 0.
	minW, maxW float64
	bucketOK   bool

	// kappa is κ', the bound of the goal-directed single-target search:
	// κ = min over positive-length edges of weight/length, shaved by
	// goalShave, so κ'·|v−t| never exceeds the weight of a path from v
	// to t. It is 0, and xy nil, unless the snapshot is geometric and
	// local (see setGoal); single-target DijkstraTo then runs the
	// undirected bidirectional search. xy holds node v's coordinates at
	// xy[2v] and xy[2v+1].
	kappa float64
	xy    []float64
}

// Inf is the distance reported for unreachable nodes.
var Inf = math.Inf(1)

// Limits of the int32 CSR index space. One id (^int32(0) territory) is
// kept out of range so sentinel values like -1 never collide.
const (
	MaxCSRNodes     = math.MaxInt32 - 1
	MaxCSRHalfEdges = math.MaxInt32 - 1
)

// checkCSRBounds panics when a graph shape exceeds the int32 CSR index
// space. Kept as a separate function so the guard is testable without
// materializing a 2^31-node graph.
func checkCSRBounds(nodes, edges int) {
	if nodes > MaxCSRNodes {
		panic(fmt.Sprintf("graph: Freeze: %d nodes exceed the int32 CSR index range (max %d)", nodes, MaxCSRNodes))
	}
	if edges > MaxCSRHalfEdges/2 {
		panic(fmt.Sprintf("graph: Freeze: %d edges (%d half-edges) exceed the int32 CSR index range (max %d)", edges, 2*edges, MaxCSRHalfEdges))
	}
}

// Freeze builds a CSR snapshot of g. Later mutations of g (new nodes,
// edges, or weight updates) are not reflected in the snapshot. Graphs
// beyond the int32 index space (MaxCSRNodes nodes or MaxCSRHalfEdges/2
// edges) panic with a documented message.
func (g *Graph) Freeze() *CSR {
	n := len(g.nodes)
	checkCSRBounds(n, len(g.edges))
	c := &CSR{
		n:        n,
		m:        len(g.edges),
		rowStart: make([]int32, n+1),
		nbr:      make([]int32, 2*len(g.edges)),
		edgeID:   make([]int32, 2*len(g.edges)),
		weight:   make([]float64, 2*len(g.edges)),
	}
	pos := int32(0)
	for u := 0; u < n; u++ {
		c.rowStart[u] = pos
		for _, h := range g.adj[u] {
			c.nbr[pos] = int32(h.to)
			c.edgeID[pos] = int32(h.edge)
			c.weight[pos] = g.edges[h.edge].Weight
			pos++
		}
	}
	c.rowStart[n] = pos

	// Build the mirror row by row — copy then sort each chunk — so the
	// pass streams through one row at a time instead of a whole-array
	// copy followed by a second full sweep.
	c.bfsNbr = make([]int32, len(c.nbr))
	for u := 0; u < n; u++ {
		row := c.bfsNbr[c.rowStart[u]:c.rowStart[u+1]]
		copy(row, c.nbr[c.rowStart[u]:c.rowStart[u+1]])
		slices.Sort(row)
	}

	c.minW, c.maxW = math.Inf(1), math.Inf(-1)
	ok := true
	for _, w := range c.weight {
		if math.IsNaN(w) {
			ok = false
			break
		}
		if w < c.minW {
			c.minW = w
		}
		if w > c.maxW {
			c.maxW = w
		}
	}
	if len(c.weight) == 0 {
		c.minW, c.maxW = 0, 0
	}
	// The last clause guards subnormal maxW: when maxW/bucketSpan
	// underflows to 0 the bucket index nd/delta is +Inf and the int
	// conversion produces garbage, so such snapshots must take the heap
	// kernel like any other unbinnable weight distribution.
	c.bucketOK = ok && c.minW >= 0 && c.maxW > 0 && !math.IsInf(c.maxW, 1) &&
		c.maxW/bucketSpan > 0
	c.setGoal(g)
	return c
}

// Goal-directed search switches. goalShave scales κ down by 2^-20, far
// more than the relative rounding of an n-hop weight sum (n·2^-53 with
// n < 2^31) or of a computed length, so κ'·|v−t| stays below every
// computed path weight from v to t. goalLocality is the locality (mean
// edge weight ÷ κ·RMS node-pair distance) below which a snapshot counts
// as local: designed and geographic topologies measure 0.016–0.125
// (HOT, FKP, ISP, internet, mmp) and 0.35–0.39 (ring, Waxman), while
// models that join random node pairs (BA, ER, GLP) measure about 0.9,
// and on those the potential costs rows: it scanned 1.1–1.6x more on
// BA, ER and GLP routes, against 7.3x fewer on Waxman. goalMaxSpan keeps
// a goal-directed bucket index, key/delta with keys up to 2κ'·diagonal
// above the path weights, far inside the int range.
const (
	goalShave    = 1 - 0x1p-20
	goalLocality = 0.6
	goalMaxSpan  = 0x1p40
)

// setGoal decides whether single-target searches on c may be
// goal-directed, and if so records the coordinates and κ'. It needs a
// bucketable snapshot of at least two nodes with finite coordinates and
// a positive κ: a positive-length edge lighter than its length times a
// positive constant (a zero weight, say) leaves no Euclidean bound.
func (c *CSR) setGoal(g *Graph) {
	if !c.bucketOK || c.n < 2 {
		return
	}
	kappa, sumW := math.Inf(1), 0.0
	for _, e := range g.edges {
		a, b := &g.nodes[e.U], &g.nodes[e.V]
		dx, dy := a.X-b.X, a.Y-b.Y
		if l := math.Sqrt(float64(dx*dx) + float64(dy*dy)); l > 0 {
			kappa = min(kappa, e.Weight/l)
		}
		sumW += e.Weight
	}
	if !(kappa > 0) || math.IsInf(kappa, 1) {
		return
	}
	var mx, my float64
	minX, minY, maxX, maxY := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
	for i := range g.nodes {
		x, y := g.nodes[i].X, g.nodes[i].Y
		if !(math.Abs(x) <= 1e150 && math.Abs(y) <= 1e150) {
			return // NaN, infinite or squaring out of range
		}
		mx, my = mx+x, my+y
		minX, minY, maxX, maxY = min(minX, x), min(minY, y), max(maxX, x), max(maxY, y)
	}
	mx, my = mx/float64(c.n), my/float64(c.n)
	var v float64
	for i := range g.nodes {
		dx, dy := g.nodes[i].X-mx, g.nodes[i].Y-my
		v += float64(dx*dx) + float64(dy*dy)
	}
	// The mean of |u−v|² over ordered node pairs is twice the summed
	// coordinate variances, so the RMS pair distance costs one pass.
	rms := math.Sqrt(2 * v / float64(c.n))
	locality := sumW / float64(c.m) / (kappa * rms)
	diag := math.Hypot(maxX-minX, maxY-minY)
	if !(locality < goalLocality) || kappa*diag > goalMaxSpan*c.maxW {
		return
	}
	c.kappa = kappa * goalShave
	c.xy = make([]float64, 2*c.n)
	for i := range g.nodes {
		c.xy[2*i], c.xy[2*i+1] = g.nodes[i].X, g.nodes[i].Y
	}
}

// NumNodes returns the snapshot's node count.
func (c *CSR) NumNodes() int { return c.n }

// NumEdges returns the snapshot's edge count.
func (c *CSR) NumEdges() int { return c.m }

// Degree returns the number of half-edges of u in the snapshot.
func (c *CSR) Degree(u int) int { return int(c.rowStart[u+1] - c.rowStart[u]) }

// Neighbors calls fn for each half-edge of u with the neighbour id, edge
// index, and edge weight, in the same insertion order as Graph.Neighbors.
func (c *CSR) Neighbors(u int, fn func(v, edgeID int, w float64)) {
	for j := c.rowStart[u]; j < c.rowStart[u+1]; j++ {
		fn(int(c.nbr[j]), int(c.edgeID[j]), c.weight[j])
	}
}

// SortedRow returns the neighbour ids of u sorted ascending, a parallel
// edge once per edge. The slice aliases the snapshot and must not be
// modified.
func (c *CSR) SortedRow(u int) []int32 { return c.bfsNbr[c.rowStart[u]:c.rowStart[u+1]] }

// DijkstraTo computes single-source shortest paths by edge weight from
// src into ws.Dist (Inf if unreachable), ws.Parent and ws.ParentEdge (-1
// for src/unreachable), resolving ties by the smallest-id parent
// contract documented on CSR, and may stop before the whole graph is
// settled. It allocates nothing once ws has warmed up.
//
// When the snapshot's weights are finite and non-negative the kernel is
// a bucketed (delta-stepping style) monotone priority queue — the
// routing fan-out's uniform-ish Euclidean weights settle in O(m + B)
// with no per-relaxation log factor; otherwise it falls back to
// DijkstraHeap, which preserves the historical lazy panic on reaching a
// negative edge.
//
// With a non-empty targets list the bucketed kernel stops after the
// bucket window in which the last distinct target was dequeued has
// drained. Every later relaxation starts from a node in a later bucket,
// hence at a strictly larger distance, so at that point each target's
// Dist, Parent and ParentEdge — and those of every node on its parent
// chain, which sit at no larger distance — are final and bit-identical
// to a full run, zero-weight ties included. Entries of other nodes the
// run reached may be tentative; every node it did not reach, an
// unreachable target included, reads Inf and -1. Empty targets is a full
// run, and snapshots that take the heap fallback always run in full.
// Targets must be valid node ids; duplicates are allowed.
//
// When targets names exactly one node other than src, the bidirectional
// kernel runs instead: a backward search from the target meets the
// forward search in the middle and prunes the forward search to nodes
// that can lie on a shortest path (see dijkstraBidir), with the same
// guarantee at the target. On a local geometric snapshot (see CSR) both
// searches are goal-directed by a Euclidean potential scaled by κ, and
// scan several times fewer rows. An unreachable single target ends the
// run as soon as either search exhausts its component. With several
// distinct targets an unreachable one runs the traversal to completion.
//
// A single-target run records the nodes it labels in ws, and the next
// bucketed run on ws resets only those labels instead of all n (see
// Workspace).
func (c *CSR) DijkstraTo(ws *Workspace, src int, targets []int) {
	if !c.bucketOK {
		c.DijkstraHeap(ws, src)
		return
	}
	if t := singleTarget(src, targets); t >= 0 {
		c.dijkstraBidir(ws, src, t)
		return
	}
	c.dijkstraBucket(ws, src, targets)
}

// singleTarget returns the one node other than src that targets names,
// however often, or -1 when it names none or several.
func singleTarget(src int, targets []int) int {
	t := -1
	for _, v := range targets {
		if v == src || v == t {
			continue
		}
		if t >= 0 {
			return -1
		}
		t = v
	}
	return t
}

// DijkstraHeap is the reference shortest-path kernel: a lazy binary heap
// over ws-owned parallel arrays. It produces bit-identical results to
// the bucketed kernel behind DijkstraTo and is kept exported for parity
// tests and for snapshots whose weights disqualify bucketing. Negative
// edge weights panic when reached.
func (c *CSR) DijkstraHeap(ws *Workspace, src int) {
	ws.Reserve(c.n)
	ws.labelsN = -1
	dist := ws.Dist[:c.n]
	parent := ws.Parent[:c.n]
	parentEdge := ws.ParentEdge[:c.n]
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
		parentEdge[i] = -1
	}
	ws.DijkstraScanned = 0
	if c.n == 0 {
		return
	}
	dist[src] = 0
	hn := ws.heapNode[:0]
	hd := ws.heapDist[:0]
	hn, hd = heapPush(hn, hd, int32(src), 0)
	scanned := 0
	for len(hn) > 0 {
		u, du := hn[0], hd[0]
		hn, hd = heapPop(hn, hd)
		if du > dist[u] {
			continue // stale lazy-heap entry
		}
		scanned++
		for j := c.rowStart[u]; j < c.rowStart[u+1]; j++ {
			w := c.weight[j]
			if w < 0 {
				panic("graph: Dijkstra requires non-negative edge weights")
			}
			v := c.nbr[j]
			if nd := du + w; nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				parentEdge[v] = c.edgeID[j]
				hn, hd = heapPush(hn, hd, v, nd)
			} else if nd == dist[v] && betterParent(u, c.edgeID[j], parent[v], parentEdge[v]) {
				parent[v] = u
				parentEdge[v] = c.edgeID[j]
			}
		}
	}
	ws.heapNode, ws.heapDist = hn, hd
	ws.DijkstraScanned = scanned
}

// bucketSpan is the number of delta-width buckets spanning [0, maxW]:
// the bucket width is maxW/bucketSpan, so one relaxation can jump at
// most bucketSpan+1 buckets ahead. A goal-directed search keys nodes by
// reduced weights, which reach 2·maxW, and needs finer buckets, since
// its keys crowd near the shortest path: goalSpan buckets span
// [0, 2·maxW]. A circular array of nBuckets = goalSpan+2 slots always
// separates live windows of either search.
const (
	bucketSpan = 64
	goalSpan   = 512
	nBuckets   = goalSpan + 2
)

// dijkstraBucket is the bucketed monotone-priority-queue kernel behind
// DijkstraTo. Tentative distances are binned into delta-width buckets
// processed in increasing order. Buckets are intrusive doubly-linked
// lists over ws-owned arrays, so each node holds at most one live entry:
// a distance improvement moves the node to its new bucket (a decrease-key)
// rather than enqueueing a stale duplicate, and re-relaxation within the
// current window re-inserts an already-dequeued node. The structure is
// therefore bounded by n and allocates nothing after ws.Reserve. Only
// applicable when c.bucketOK. targets bounds the run (see DijkstraTo).
func (c *CSR) dijkstraBucket(ws *Workspace, src int, targets []int) {
	ws.Reserve(c.n)
	epoch, pending := ws.markTargets(targets)
	visited := ws.visited
	bs := c.startBuckets(ws, src, c.maxW/bucketSpan)
	dist, parent, parentEdge := bs.dist, bs.parent, bs.parentEdge
	bNext, bPrev, bOf := bs.bNext, bs.bPrev, bs.bOf
	head, delta, live := bs.head, bs.delta, bs.live
	scanned := 0
	for k := 0; live > 0; k++ {
		s := k % nBuckets
		for head[s] >= 0 {
			u := head[s]
			head[s] = bNext[u]
			if bNext[u] >= 0 {
				bPrev[bNext[u]] = -1
			}
			bOf[u] = -1
			live--
			if pending > 0 && visited[u] == epoch {
				visited[u] = 0 // count each target once, at its first dequeue
				pending--
			}
			scanned++
			du := dist[u]
			for j := c.rowStart[u]; j < c.rowStart[u+1]; j++ {
				v := c.nbr[j]
				if nd := du + c.weight[j]; nd < dist[v] {
					dist[v] = nd
					parent[v] = u
					parentEdge[v] = c.edgeID[j]
					t := int32(int(nd/delta) % nBuckets)
					if bOf[v] == t {
						continue // queued in the right bucket already
					}
					if bOf[v] >= 0 { // decrease-key: unlink from old bucket
						if bPrev[v] >= 0 {
							bNext[bPrev[v]] = bNext[v]
						} else {
							head[bOf[v]] = bNext[v]
						}
						if bNext[v] >= 0 {
							bPrev[bNext[v]] = bPrev[v]
						}
					} else {
						live++
					}
					bOf[v] = t
					bPrev[v] = -1
					bNext[v] = head[t]
					if head[t] >= 0 {
						bPrev[head[t]] = v
					}
					head[t] = v
				} else if nd == dist[v] && betterParent(u, c.edgeID[j], parent[v], parentEdge[v]) {
					parent[v] = u
					parentEdge[v] = c.edgeID[j]
				}
			}
		}
		if pending == 0 {
			break // every target settled with this window
		}
	}
	// This loop does not record the nodes it labels: the bookkeeping cost
	// it about a tenth on HOT and ER traffic sets, whose runs label most
	// of the graph, so the next run sweeps all n instead.
	ws.labelsN = -1
	ws.DijkstraScanned = scanned
}

// bidirSlack widens dijkstraBidir's pruning bound μ by a relative
// 2^-16. The forward labels, the backward labels and μ add up the same
// path's weights in different orders, so they can disagree by rounding —
// at most a relative n·2^-52 on n-hop paths; the slack absorbs that, so
// no node of the target's parent chain is ever pruned. The
// goal-directed stop rule widens the target's key by the same margin.
const bidirSlack = 1 + 0x1p-16

// dijkstraBidir is the single-target kernel behind DijkstraTo
// (bidirectional search: Pohl 1971; Goldberg & Harrelson, SODA 2005).
// It runs in two phases:
//
//  1. Meet: the forward bucket search from src and a backward lazy-heap
//     search from tgt alternate one node at a time, always advancing the
//     smaller queue. μ, the shortest src–tgt path seen, is the least sum
//     of a node's forward and backward labels, updated whenever either
//     label improves. The phase ends once the forward queue's lower bound
//     (its current bucket's floor) plus the backward queue's minimum
//     reaches μ, or the backward queue runs dry.
//  2. Complete: only the forward search continues. It skips the row of
//     any node whose forward label plus a lower bound on its distance to
//     tgt — its backward label, or the bound the backward queue's
//     minimum gives if that is smaller — exceeds μ·bidirSlack, and it
//     stops by dijkstraBucket's rule, once the window in which tgt was
//     first dequeued has drained.
//
// On a goal-directed snapshot (c.kappa > 0) both searches are A*
// searches (Ikeda et al. 1994; Goldberg & Harrelson) under the averaged
// potential p(v) = κ'(|v−t| − |v−s|)/2: the forward queue is keyed by
// d(v) + p(v) − p(s) and the backward queue by dB(v) + p(t) − p(v).
// Both potentials are feasible, since |p(u) − p(v)| ≤ κ'|u−v| never
// exceeds the weight of an edge u–v, and they sum to a constant, so
// phase 1 ends by the same test with μ shifted by p(t) − p(s). Reduced
// edge weights lie in [0, 2w], so goalSpan buckets span [0, 2·maxW]; a
// key that rounding puts below the current bucket is queued in the
// current one. Phase 2 also prunes by the Euclidean bound κ'|v−t| and
// reads the backward queue's bound through the potential; it stops
// after the first window whose end exceeds the target's key widened by
// bidirSlack. A node on a shortest path to tgt has a key no larger than
// tgt's, up to rounding that the widening covers, so that window holds
// every such node.
//
// A node on tgt's parent chain lies on a shortest path, so its forward
// label plus its distance to tgt is within rounding of μ and it is never
// skipped; neither is a tight predecessor of a chain node. Every chain
// node is therefore scanned at its final label, and tgt's Dist, Parent
// and ParentEdge, with its whole parent chain, are bit-identical to a
// full run. A backward search that exhausts tgt's component without
// reaching src proves tgt unreachable and ends the run. Backward labels
// live in ws.distB, valid where ws.visited carries this run's epoch, and
// the backward queue reuses the heap buffers.
func (c *CSR) dijkstraBidir(ws *Workspace, src, tgt int) {
	ws.Reserve(c.n)
	ws.reserveBackward(c.n)
	goal := c.kappa > 0
	delta := c.maxW / bucketSpan
	var pot potential
	var ps, pt float64 // p(s), p(t)
	if goal {
		pot = c.potential(src, tgt)
		ps, _ = pot.at(int32(src))
		pt, _ = pot.at(int32(tgt))
		delta = 2 * c.maxW / goalSpan
	}
	bs := c.startBuckets(ws, src, delta)
	epoch := ws.nextEpoch()
	seen, distB := ws.visited, ws.distB[:c.n]
	seen[tgt] = epoch
	distB[tgt] = 0
	hn, hd := heapPush(ws.heapNode[:0], ws.heapDist[:0], int32(tgt), 0)
	mu := Inf              // shortest src–tgt path seen so far
	meeting := true        // phase 1
	bound, lbB := Inf, Inf // phase 2's pruning bound and backward queue minimum
	tgtSeen := false
	scanned := 0
search:
	for k := 0; bs.live > 0; k++ {
		s := k % nBuckets
		floor := float64(k) * bs.delta
		for bs.head[s] >= 0 {
			if meeting {
				if len(hn) == 0 || floor+hd[0] >= mu+(pt-ps) {
					meeting = false
					if len(hn) > 0 {
						lbB = hd[0]
					} else if seen[src] != epoch {
						break search // tgt's component holds no path to src
					}
					bound = mu * bidirSlack
				} else if len(hn) < bs.live {
					u, ku := hn[0], hd[0]
					hn, hd = heapPop(hn, hd)
					du := distB[u]
					if goal {
						pu, _ := pot.at(u)
						if ku > du+(pt-pu) {
							continue // stale lazy-heap entry
						}
					} else if ku > du {
						continue // stale lazy-heap entry
					}
					scanned++
					for j := c.rowStart[u]; j < c.rowStart[u+1]; j++ {
						v := c.nbr[j]
						nd := du + c.weight[j]
						if nd < Inf && (seen[v] != epoch || nd < distB[v]) {
							seen[v] = epoch
							distB[v] = nd
							key := nd
							if goal {
								pv, _ := pot.at(v)
								key = nd + (pt - pv)
							}
							hn, hd = heapPush(hn, hd, v, key)
							if m := nd + bs.dist[v]; m < mu {
								mu = m
							}
						}
					}
					continue
				}
			}
			u := bs.pop(s)
			if int(u) == tgt {
				tgtSeen = true
			}
			du := bs.dist[u]
			if !meeting {
				lb := lbB
				var toT float64
				if goal {
					var pu float64
					pu, toT = pot.at(u)
					lb += pu - pt
				}
				if seen[u] == epoch && distB[u] < lb {
					lb = distB[u]
				}
				if du+max(lb, c.kappa*toT) > bound {
					continue // on no path shorter than μ
				}
			}
			scanned++
			for j := c.rowStart[u]; j < c.rowStart[u+1]; j++ {
				v := c.nbr[j]
				nd := du + c.weight[j]
				old := bs.dist[v]
				if nd > old {
					continue
				}
				if nd == old {
					bs.tie(u, v, c.edgeID[j])
					continue
				}
				b := int(nd / bs.delta)
				if goal {
					pv, _ := pot.at(v)
					b = max(int((nd+(pv-ps))/bs.delta), k)
				}
				bs.improve(u, v, c.edgeID[j], nd, b)
				if seen[v] == epoch {
					if m := nd + distB[v]; m < mu {
						mu = m
					}
				}
			}
		}
		if goal {
			if dt := bs.dist[tgt]; dt < Inf && dt+(pt-ps)+float64(dt*(bidirSlack-1)) < float64(k+1)*bs.delta {
				break // every node of a shortest path has a key in a drained window
			}
		} else if tgtSeen {
			break // the window that dequeued tgt has drained
		}
	}
	ws.heapNode, ws.heapDist = hn, hd
	ws.queue = bs.touched
	ws.DijkstraScanned = scanned
}

// potential evaluates the averaged Euclidean potential of one
// goal-directed single-target run from s to t.
type potential struct {
	xy             []float64
	sx, sy, tx, ty float64
	half           float64 // κ'/2
}

// potential returns the potential of a run from src to tgt; c.kappa
// must be positive.
func (c *CSR) potential(src, tgt int) potential {
	return potential{
		xy: c.xy,
		sx: c.xy[2*src], sy: c.xy[2*src+1],
		tx: c.xy[2*tgt], ty: c.xy[2*tgt+1],
		half: c.kappa / 2,
	}
}

// at returns p(v) = κ'(|v−t| − |v−s|)/2 and the distance |v−t|. The
// conversions round each square, so no platform fuses a multiply-add
// and the potential, hence the work a run does, is the same everywhere.
func (p *potential) at(v int32) (pv, toT float64) {
	x, y := p.xy[2*v], p.xy[2*v+1]
	tx, ty, sx, sy := x-p.tx, y-p.ty, x-p.sx, y-p.sy
	toT = math.Sqrt(float64(tx*tx) + float64(ty*ty))
	return p.half * (toT - math.Sqrt(float64(sx*sx)+float64(sy*sy))), toT
}

// betterParent applies the smallest-id tie-break: candidate (u, e)
// replaces the current (p, pe) when it is lexicographically smaller.
func betterParent(u, e, p, pe int32) bool {
	return u < p || (u == p && e < pe)
}

// bucketState bundles the bucketed queue's bookkeeping. startBuckets
// resets it for both bucketed kernels; the bidirectional kernel's
// forward search advances it through pop, improve and tie, while
// dijkstraBucket inlines the same steps in its hot loop, since the
// compiler does not inline improve. All fields alias Workspace storage.
type bucketState struct {
	dist               []float64
	parent, parentEdge []int32
	bNext, bPrev, bOf  []int32
	head               *[nBuckets]int32
	delta              float64
	live               int
	// touched lists every node whose label this run has set, in the
	// order it was first set. It is ws.queue, which no Dijkstra kernel
	// uses as a queue, reserved to n, so appends never reallocate.
	touched []int32
}

// startBuckets resets ws's labels and bucket queue for a run from src
// with bucket width delta — every node at Inf with no parent, src alone
// in bucket 0 — and returns the queue state over that storage. ws must
// be reserved to c.n. When the labels are as the last single-target run
// on ws left them (ws.labelsN == c.n), only the nodes that run touched
// are reset; every other entry still holds Inf and -1.
func (c *CSR) startBuckets(ws *Workspace, src int, delta float64) bucketState {
	bs := bucketState{
		dist:       ws.Dist[:c.n],
		parent:     ws.Parent[:c.n],
		parentEdge: ws.ParentEdge[:c.n],
		bNext:      ws.bktNext[:c.n],
		bPrev:      ws.bktPrev[:c.n],
		bOf:        ws.bktOf[:c.n],
		head:       &ws.bktHead,
		delta:      delta,
		touched:    ws.queue[:0],
	}
	if ws.labelsN == c.n {
		for _, v := range ws.queue {
			bs.dist[v] = Inf
			bs.parent[v] = -1
			bs.parentEdge[v] = -1
			bs.bOf[v] = -1
		}
	} else {
		for i := range bs.dist {
			bs.dist[i] = Inf
			bs.parent[i] = -1
			bs.parentEdge[i] = -1
			bs.bOf[i] = -1
		}
	}
	ws.labelsN = c.n
	if c.n == 0 {
		return bs // live 0: nothing to settle
	}
	for i := range bs.head {
		bs.head[i] = -1
	}
	bs.dist[src] = 0
	bs.bOf[src] = 0
	bs.bPrev[src] = -1
	bs.bNext[src] = -1
	bs.head[0] = int32(src)
	bs.live = 1
	bs.touched = append(bs.touched, int32(src))
	return bs
}

// pop unlinks and returns the first node of bucket slot s, which must
// be non-empty.
func (bs *bucketState) pop(s int) int32 {
	u := bs.head[s]
	bs.head[s] = bs.bNext[u]
	if bs.bNext[u] >= 0 {
		bs.bPrev[bs.bNext[u]] = -1
	}
	bs.bOf[u] = -1
	bs.live--
	return u
}

// improve lowers v's label to nd, reached from u over edge e, and moves
// v to bucket index b (decrease-key). nd must be below v's label.
// Improvements are strict and tie applies a total order, so the end
// state after a set of relaxations does not depend on their order.
func (bs *bucketState) improve(u, v, e int32, nd float64, b int) {
	if bs.dist[v] == Inf {
		bs.touched = append(bs.touched, v)
	}
	bs.dist[v] = nd
	bs.parent[v] = u
	bs.parentEdge[v] = e
	t := int32(b % nBuckets)
	if bs.bOf[v] == t {
		return // queued in the right bucket already
	}
	if bs.bOf[v] >= 0 { // decrease-key: unlink from old bucket
		if bs.bPrev[v] >= 0 {
			bs.bNext[bs.bPrev[v]] = bs.bNext[v]
		} else {
			bs.head[bs.bOf[v]] = bs.bNext[v]
		}
		if bs.bNext[v] >= 0 {
			bs.bPrev[bs.bNext[v]] = bs.bPrev[v]
		}
	} else {
		bs.live++
	}
	bs.bOf[v] = t
	bs.bPrev[v] = -1
	bs.bNext[v] = bs.head[t]
	if bs.head[t] >= 0 {
		bs.bPrev[bs.head[t]] = v
	}
	bs.head[t] = v
}

// tie applies the smallest-id/smallest-edge-id parent tie-break for a
// candidate (u, e) at v's current distance.
func (bs *bucketState) tie(u, v, e int32) {
	if betterParent(u, e, bs.parent[v], bs.parentEdge[v]) {
		bs.parent[v] = u
		bs.parentEdge[v] = e
	}
}

// Direction-optimizing BFS switching thresholds (Beamer et al.): switch
// top-down -> bottom-up when the frontier's half-edges exceed the
// unexplored half-edges / bfsAlpha, and bottom-up -> top-down when the
// frontier shrinks below n / bfsBeta nodes.
const (
	bfsAlpha = 14
	bfsBeta  = 24
)

// BFS computes hop distances from src into ws.Hop (-1 if unreachable) and
// BFS parents into ws.Parent (-1 for src/unreachable; otherwise the
// smallest-id neighbour one hop closer, per the CSR tie-break contract).
// Allocation-free once ws has warmed up.
//
// The kernel is direction-optimizing: levels run top-down over a compact
// queue until the frontier grows dense, then bottom-up over the dense
// bitset frontier in ws (each unvisited node scans its own sorted row and
// claims its first in-frontier neighbour), switching back when the
// frontier thins. On low-diameter power-law graphs the bottom-up levels
// examine a small fraction of the edges a top-down sweep would. One call
// runs on one goroutine; many-source sweeps parallelize across sources.
func (c *CSR) BFS(ws *Workspace, src int) {
	c.bfs(ws, src, bfsAlpha, bfsBeta)
}

// BFSTopDown is the reference BFS kernel: plain level-synchronous
// top-down traversal with no direction switching. It produces
// bit-identical results to BFS and is kept exported for parity tests and
// benchmarks.
func (c *CSR) BFSTopDown(ws *Workspace, src int) {
	c.bfs(ws, src, 0, 0)
}

// bfs is the shared level-synchronous traversal over the sorted bfsNbr
// mirror; alpha <= 0 disables direction switching (pure top-down).
func (c *CSR) bfs(ws *Workspace, src, alpha, beta int) {
	ws.Reserve(c.n)
	ws.labelsN = -1 // BFS overwrites Parent and queue
	rowStart, nbrs := c.rowStart, c.bfsNbr
	hop := ws.Hop[:c.n]
	parent := ws.Parent[:c.n]
	for i := range hop {
		hop[i] = -1
		parent[i] = -1
	}
	ws.BFSBottomUpLevels = 0
	if c.n == 0 {
		return
	}
	hop[src] = 0
	queue := ws.queue[:0]
	queue = append(queue, int32(src))
	lo, hi := 0, 1
	nf := 1                                    // nodes in the current frontier
	mf := int(rowStart[src+1] - rowStart[src]) // half-edges out of the current frontier
	mu := len(nbrs) - mf                       // half-edges out of still-unvisited nodes
	bottomUp := false
	words := (c.n + 63) / 64
	front := ws.front[:words]
	next := ws.next[:words]
	for level := int32(0); nf > 0; level++ {
		if alpha > 0 {
			if !bottomUp && mf*alpha > mu {
				// Densify: materialize the queue level as a bitset.
				for i := range front {
					front[i] = 0
				}
				for _, u := range queue[lo:hi] {
					front[u>>6] |= 1 << (uint(u) & 63)
				}
				bottomUp = true
			} else if bottomUp && nf*beta < c.n {
				// Sparsify: rebuild the queue from the bitset, ascending.
				queue = queue[:0]
				for wi, w := range front {
					for w != 0 {
						queue = append(queue, int32(wi<<6+bits.TrailingZeros64(w)))
						w &= w - 1
					}
				}
				lo, hi = 0, len(queue)
				bottomUp = false
			}
		}
		nfNext, mfNext := 0, 0
		if bottomUp {
			ws.BFSBottomUpLevels++
			for i := range next {
				next[i] = 0
			}
			nfNext, mfNext = c.bottomUp(hop, parent, front, next, level)
			front, next = next, front
		} else {
			for i := lo; i < hi; i++ {
				u := queue[i]
				for j := rowStart[u]; j < rowStart[u+1]; j++ {
					v := nbrs[j]
					if hop[v] < 0 {
						hop[v] = level + 1
						parent[v] = u
						queue = append(queue, v)
						mfNext += int(rowStart[v+1] - rowStart[v])
					} else if hop[v] == level+1 && u < parent[v] {
						parent[v] = u
					}
				}
			}
			lo, hi = hi, len(queue)
			nfNext = hi - lo
		}
		nf, mf = nfNext, mfNext
		mu -= mf
	}
	ws.queue = queue
}

// bottomUp runs one bottom-up level: every still-unvisited node scans
// its sorted row and claims its first (hence smallest-id) in-frontier
// neighbour. Returns the nodes and out-half-edges added to the next
// frontier. It stays a function of its own: inlined into bfs, the same
// loop made BA-100k traversals 30–50% slower (three alternating runs
// on a 2-vCPU VM).
func (c *CSR) bottomUp(hop, parent []int32, front, next []uint64, level int32) (nf, mf int) {
	rowStart, nbrs := c.rowStart, c.bfsNbr
	for v := range hop {
		if hop[v] >= 0 {
			continue
		}
		for j := rowStart[v]; j < rowStart[v+1]; j++ {
			u := nbrs[j]
			if front[u>>6]&(1<<(uint(u)&63)) != 0 {
				hop[v] = level + 1
				parent[v] = u
				next[v>>6] |= 1 << (uint(v) & 63)
				nf++
				mf += int(rowStart[v+1] - rowStart[v])
				break
			}
		}
	}
	return nf, mf
}

// LargestComponentMasked returns the size of the largest connected
// component of the snapshot with nodes whose removedNode[u] is true and
// edges whose removedEdge[edgeID] is true treated as absent. It is the
// kernel under the robustness sweeps and failure/repair timelines:
// instead of materializing a subgraph per removal fraction, callers flip
// bits in the masks and re-measure. Either mask may be nil
// or shorter than its id space (the missing tail is present); without
// an edge mask the traversal reads no edge ids. Visited bookkeeping uses
// ws epochs, so repeated calls do not re-clear an O(n) array.
func (c *CSR) LargestComponentMasked(ws *Workspace, removedNode, removedEdge []bool) int {
	ws.Reserve(c.n)
	ws.labelsN = -1 // queue no longer lists the Dijkstra labels
	epoch := ws.nextEpoch()
	visited := ws.visited
	best := 0
	for s := 0; s < c.n; s++ {
		if (s < len(removedNode) && removedNode[s]) || visited[s] == epoch {
			continue
		}
		visited[s] = epoch
		queue := ws.queue[:0]
		queue = append(queue, int32(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			lo, hi := c.rowStart[u], c.rowStart[u+1]
			if len(removedEdge) == 0 {
				for _, v := range c.nbr[lo:hi] {
					if visited[v] != epoch && !(int(v) < len(removedNode) && removedNode[v]) {
						visited[v] = epoch
						queue = append(queue, v)
					}
				}
				continue
			}
			for j := lo; j < hi; j++ {
				if e := int(c.edgeID[j]); e < len(removedEdge) && removedEdge[e] {
					continue
				}
				v := c.nbr[j]
				if visited[v] != epoch && !(int(v) < len(removedNode) && removedNode[v]) {
					visited[v] = epoch
					queue = append(queue, v)
				}
			}
		}
		ws.queue = queue
		if len(queue) > best {
			best = len(queue)
		}
	}
	return best
}

// boundedIndex reports whether u is a valid node id in the adjacency
// structure. HasEdge and FindEdge share it so both are safe on
// out-of-range ids.
func (g *Graph) boundedIndex(u int) bool { return u >= 0 && u < len(g.adj) }

// lazy binary heap over parallel (node, dist) arrays — no interface
// boxing, no container/heap, so Dijkstra stays allocation-free.

func heapPush(hn []int32, hd []float64, node int32, d float64) ([]int32, []float64) {
	hn = append(hn, node)
	hd = append(hd, d)
	i := len(hn) - 1
	for i > 0 {
		p := (i - 1) / 2
		if hd[p] <= hd[i] {
			break
		}
		hn[p], hn[i] = hn[i], hn[p]
		hd[p], hd[i] = hd[i], hd[p]
		i = p
	}
	return hn, hd
}

func heapPop(hn []int32, hd []float64) ([]int32, []float64) {
	last := len(hn) - 1
	hn[0], hd[0] = hn[last], hd[last]
	hn, hd = hn[:last], hd[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(hn) && hd[l] < hd[small] {
			small = l
		}
		if r < len(hn) && hd[r] < hd[small] {
			small = r
		}
		if small == i {
			break
		}
		hn[i], hn[small] = hn[small], hn[i]
		hd[i], hd[small] = hd[small], hd[i]
		i = small
	}
	return hn, hd
}
