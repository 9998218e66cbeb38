package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/par"
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
// Freeze a graph once, then fan any number of Dijkstra/BFS/eccentricity
// calls out across goroutines, each with its own pooled Workspace. This is
// the compute substrate under internal/routing, internal/metrics and
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
	return c
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

// Dijkstra computes single-source shortest paths by edge weight from src
// into ws.Dist (Inf if unreachable), ws.Parent and ws.ParentEdge (-1 for
// src/unreachable), resolving ties by the smallest-id parent contract
// documented on CSR. It allocates nothing once ws has warmed up.
//
// When the snapshot's weights are finite and non-negative the kernel is
// a bucketed (delta-stepping style) monotone priority queue — the
// routing fan-out's uniform-ish Euclidean weights settle in O(m + B)
// with no per-relaxation log factor; otherwise it falls back to
// DijkstraHeap, which preserves the historical lazy panic on reaching a
// negative edge.
func (c *CSR) Dijkstra(ws *Workspace, src int) {
	c.DijkstraTo(ws, src, nil)
}

// DijkstraTo is Dijkstra that may stop before the whole graph is
// settled, and like it allocates nothing once ws has warmed up. With a
// non-empty targets list the bucketed kernel stops after the bucket
// window in which the last distinct target was dequeued has drained.
// Every later relaxation starts from a node in a later bucket, hence at
// a strictly larger distance, so at that point each target's Dist,
// Parent and ParentEdge — and those of every node on its parent chain,
// which sit at no larger distance — are final and bit-identical to a
// full run, zero-weight ties included. Entries of other nodes may be
// tentative. Empty targets is a full run, and snapshots that take the
// heap fallback always run in full. Targets must be valid node ids;
// duplicates are allowed.
//
// When targets names exactly one node other than src, the bidirectional
// kernel runs instead: a backward search from the target meets the
// forward search in the middle and prunes the forward search to nodes
// that can lie on a shortest path (see dijkstraBidir), with the same
// guarantee at the target. An unreachable single target ends the run as
// soon as either search exhausts its component. With several distinct
// targets an unreachable one runs the traversal to completion.
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
// the bucketed kernel behind Dijkstra and is kept exported for parity
// tests and for snapshots whose weights disqualify bucketing. Negative
// edge weights panic when reached.
func (c *CSR) DijkstraHeap(ws *Workspace, src int) {
	ws.Reserve(c.n)
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
// most bucketSpan+1 buckets ahead and a circular array of
// nBuckets = bucketSpan+2 slots always separates live windows.
const (
	bucketSpan = 64
	nBuckets   = bucketSpan + 2
)

// dijkstraBucket is the bucketed monotone-priority-queue kernel behind
// Dijkstra. Tentative distances are binned into delta-width buckets
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
	bs := c.startBuckets(ws, src)
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
	ws.DijkstraScanned = scanned
}

// bidirSlack widens dijkstraBidir's pruning bound μ by a relative
// 2^-16. The forward labels, the backward labels and μ add up the same
// path's weights in different orders, so they can disagree by rounding —
// at most a relative n·2^-52 on n-hop paths; the slack absorbs that, so
// no node of the target's parent chain is ever pruned.
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
//     tgt — its backward label, or the backward queue's minimum if that
//     is smaller — exceeds μ·bidirSlack, and it stops by
//     dijkstraBucket's rule, once the window in which tgt was first
//     dequeued has drained.
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
	bs := c.startBuckets(ws, src)
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
				if len(hn) == 0 || floor+hd[0] >= mu {
					meeting = false
					if len(hn) > 0 {
						lbB = hd[0]
					} else if seen[src] != epoch {
						break search // tgt's component holds no path to src
					}
					bound = mu * bidirSlack
				} else if len(hn) < bs.live {
					u, du := hn[0], hd[0]
					hn, hd = heapPop(hn, hd)
					if du > distB[u] {
						continue // stale lazy-heap entry
					}
					scanned++
					for j := c.rowStart[u]; j < c.rowStart[u+1]; j++ {
						v := c.nbr[j]
						nd := du + c.weight[j]
						if nd < Inf && (seen[v] != epoch || nd < distB[v]) {
							seen[v] = epoch
							distB[v] = nd
							hn, hd = heapPush(hn, hd, v, nd)
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
				if seen[u] == epoch && distB[u] < lb {
					lb = distB[u]
				}
				if du+lb > bound {
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
				bs.relax(u, v, c.edgeID[j], nd)
				if nd < old && seen[v] == epoch {
					if m := nd + distB[v]; m < mu {
						mu = m
					}
				}
			}
		}
		if tgtSeen {
			break // the window that dequeued tgt has drained
		}
	}
	ws.heapNode, ws.heapDist = hn, hd
	ws.DijkstraScanned = scanned
}

// betterParent applies the smallest-id tie-break: candidate (u, e)
// replaces the current (p, pe) when it is lexicographically smaller.
func betterParent(u, e, p, pe int32) bool {
	return u < p || (u == p && e < pe)
}

// bucketState bundles the bucketed queue's bookkeeping. startBuckets
// resets it for both bucketed kernels; the bidirectional kernel's
// forward search advances it through pop and relax, while
// dijkstraBucket inlines the same steps in its hot loop, since the
// compiler does not inline relax. All fields alias Workspace storage.
type bucketState struct {
	dist               []float64
	parent, parentEdge []int32
	bNext, bPrev, bOf  []int32
	head               *[nBuckets]int32
	delta              float64
	live               int
}

// startBuckets resets ws's labels and bucket queue for a run from src —
// every node at Inf with no parent, src alone in bucket 0 — and returns
// the queue state over that storage. ws must be reserved to c.n.
func (c *CSR) startBuckets(ws *Workspace, src int) bucketState {
	bs := bucketState{
		dist:       ws.Dist[:c.n],
		parent:     ws.Parent[:c.n],
		parentEdge: ws.ParentEdge[:c.n],
		bNext:      ws.bktNext[:c.n],
		bPrev:      ws.bktPrev[:c.n],
		bOf:        ws.bktOf[:c.n],
		head:       &ws.bktHead,
		delta:      c.maxW / bucketSpan,
	}
	for i := range bs.dist {
		bs.dist[i] = Inf
		bs.parent[i] = -1
		bs.parentEdge[i] = -1
		bs.bOf[i] = -1
	}
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

// relax applies one candidate edge (u -> v via half-edge j of weight
// sum nd): a strict improvement updates the distance and moves v to its
// new bucket (decrease-key), an equal distance applies the
// smallest-id/smallest-edge-id parent tie-break. The end state after a
// set of relaxations does not depend on their order: improvements are
// strict and the tie-break is a total order.
func (bs *bucketState) relax(u, v, e int32, nd float64) {
	if nd < bs.dist[v] {
		bs.dist[v] = nd
		bs.parent[v] = u
		bs.parentEdge[v] = e
		t := int32(int(nd/bs.delta) % nBuckets)
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
	} else if nd == bs.dist[v] && betterParent(u, e, bs.parent[v], bs.parentEdge[v]) {
		bs.parent[v] = u
		bs.parentEdge[v] = e
	}
}

// IntraWorkers clamps a per-traversal inner worker width for this
// snapshot: below the parallel BFS's auto-engagement threshold one
// traversal is too small for the fan-out overhead to pay, so a caller
// composing an outer per-source fan-out with BFSParallel
// (internal/metricreg) gets 1 back and stays on the allocation-free
// serial kernel.
func (c *CSR) IntraWorkers(inner int) int {
	if inner < 1 || c.n < bfsParallelMinNodes {
		return 1
	}
	return inner
}

// Direction-optimizing BFS switching thresholds (Beamer et al.): switch
// top-down -> bottom-up when the frontier's half-edges exceed the
// unexplored half-edges / bfsAlpha, and bottom-up -> top-down when the
// frontier shrinks below n / bfsBeta nodes.
const (
	bfsAlpha = 14
	bfsBeta  = 24
)

// Parallel bottom-up BFS tuning. Levels shard the node range into
// bfsShardSpan-node chunks — a multiple of 64, so every shard owns a
// disjoint range of next-frontier bitset words and workers never touch
// the same word. BFS auto-engages the parallel path at
// bfsParallelMinNodes nodes; below that the fan-out overhead outweighs a
// dense level's work and the serial path is kept (BFSParallel overrides).
const (
	bfsShardSpan        = 4096
	bfsParallelMinNodes = 1 << 18
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
// examine a small fraction of the edges a top-down sweep would.
//
// On snapshots of at least bfsParallelMinNodes nodes the bottom-up levels
// additionally run parallel across GOMAXPROCS workers (see BFSParallel);
// results are bit-identical either way, but the parallel fan-out
// machinery allocates a little per call, so small graphs keep the
// allocation-free serial path.
func (c *CSR) BFS(ws *Workspace, src int) {
	workers := 1
	if c.n >= bfsParallelMinNodes {
		workers = par.Workers(0, c.n)
	}
	c.bfs(ws, src, bfsAlpha, bfsBeta, workers)
}

// BFSParallel is BFS with an explicit worker count for the bottom-up
// levels (workers <= 0 means GOMAXPROCS), engaged regardless of graph
// size. Each unvisited node independently scans its own sorted row and
// claims its smallest-id in-frontier neighbour, so node outcomes do not
// depend on scheduling and the result is bit-identical to BFS with
// workers == 1. Top-down levels stay serial — they are a small fraction
// of traversal work on the graphs where parallelism pays.
func (c *CSR) BFSParallel(ws *Workspace, src, workers int) {
	if workers <= 0 {
		workers = par.Workers(0, c.n)
	}
	c.bfs(ws, src, bfsAlpha, bfsBeta, workers)
}

// BFSTopDown is the reference BFS kernel: plain level-synchronous
// top-down traversal with no direction switching. It produces
// bit-identical results to BFS and is kept exported for parity tests and
// benchmarks.
func (c *CSR) BFSTopDown(ws *Workspace, src int) {
	c.bfs(ws, src, 0, 0, 1)
}

// bfs is the shared level-synchronous traversal over the sorted bfsNbr
// mirror; alpha <= 0 disables direction switching (pure top-down),
// workers > 1 parallelizes the bottom-up levels.
func (c *CSR) bfs(ws *Workspace, src int, alpha, beta, workers int) {
	ws.Reserve(c.n)
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
			if workers > 1 {
				nfNext, mfNext = c.bottomUpParallel(ws, hop, parent, front, next, level, workers)
			} else {
				snf, smf := c.bottomUpRange(hop, parent, front, next, level, 0, c.n)
				nfNext, mfNext = int(snf), int(smf)
			}
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

// bottomUpRange runs one bottom-up level over nodes [vlo, vhi): every
// still-unvisited node scans its sorted row and claims its first (hence
// smallest-id) in-frontier neighbour. The outcome per node depends only
// on front and the row — never on other nodes of the level — which is
// what makes the sharded parallel variant bit-identical. Returns the
// nodes and out-half-edges added to the next frontier.
func (c *CSR) bottomUpRange(hop, parent []int32, front, next []uint64, level int32, vlo, vhi int) (int32, int64) {
	rowStart, nbrs := c.rowStart, c.bfsNbr
	var nf int32
	var mf int64
	for v := vlo; v < vhi; v++ {
		if hop[v] >= 0 {
			continue
		}
		for j := rowStart[v]; j < rowStart[v+1]; j++ {
			u := nbrs[j]
			if front[u>>6]&(1<<(uint(u)&63)) != 0 {
				// Sorted row: the first in-frontier neighbour is
				// the smallest-id one, honouring the contract.
				hop[v] = level + 1
				parent[v] = u
				next[v>>6] |= 1 << (uint(v) & 63)
				nf++
				mf += int64(rowStart[v+1] - rowStart[v])
				break
			}
		}
	}
	return nf, mf
}

// bottomUpParallel fans one bottom-up level out over word-aligned
// bfsShardSpan-node shards. Shards write disjoint hop/parent entries and
// disjoint next-bitset words (the span is a multiple of 64) while front
// is read-only, so there are no write conflicts; per-shard frontier
// counters are summed in shard order, keeping the level's results and
// the direction-switch inputs bit-identical to the serial loop.
func (c *CSR) bottomUpParallel(ws *Workspace, hop, parent []int32, front, next []uint64, level int32, workers int) (int, int) {
	shards := (c.n + bfsShardSpan - 1) / bfsShardSpan
	ws.reserveShards(shards)
	snf := ws.shardNF[:shards]
	smf := ws.shardMF[:shards]
	par.ForEachWorkerErr(workers, shards, func(_, s int) error {
		vlo := s * bfsShardSpan
		vhi := vlo + bfsShardSpan
		if vhi > c.n {
			vhi = c.n
		}
		snf[s], smf[s] = c.bottomUpRange(hop, parent, front, next, level, vlo, vhi)
		return nil
	})
	nf, mf := 0, 0
	for s := range snf {
		nf += int(snf[s])
		mf += int(smf[s])
	}
	return nf, mf
}

// Eccentricity returns the maximum finite hop distance from src.
func (c *CSR) Eccentricity(ws *Workspace, src int) int {
	c.BFS(ws, src)
	max := int32(0)
	for _, d := range ws.Hop[:c.n] {
		if d > max {
			max = d
		}
	}
	return int(max)
}

// LargestComponentMasked returns the size of the largest connected
// component of the snapshot restricted to nodes with removed[u] == false.
// It is the kernel under the robustness failure/attack sweeps: instead of
// materializing a RemoveNodes copy per removal fraction, callers flip
// bits in one removed mask and re-measure. Visited bookkeeping uses ws
// epochs, so repeated calls do not re-clear an O(n) array.
func (c *CSR) LargestComponentMasked(ws *Workspace, removed []bool) int {
	ws.Reserve(c.n)
	epoch := ws.nextEpoch()
	visited := ws.visited
	best := 0
	for s := 0; s < c.n; s++ {
		if removed[s] || visited[s] == epoch {
			continue
		}
		visited[s] = epoch
		queue := ws.queue[:0]
		queue = append(queue, int32(s))
		size := 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			size++
			for j := c.rowStart[u]; j < c.rowStart[u+1]; j++ {
				v := c.nbr[j]
				if visited[v] != epoch && !removed[v] {
					visited[v] = epoch
					queue = append(queue, v)
				}
			}
		}
		ws.queue = queue
		if size > best {
			best = size
		}
	}
	return best
}

// LargestComponentMixedMasked returns the size of the largest connected
// component of the snapshot with nodes whose removedNode[u] is true and
// edges whose removedEdge[edgeID] is true both treated as absent — the
// combined-mask kernel under failure/repair timelines, which interleave
// node and edge outages in one schedule. Either mask may be shorter than
// its id space (the missing tail is present) or nil.
func (c *CSR) LargestComponentMixedMasked(ws *Workspace, removedNode, removedEdge []bool) int {
	ws.Reserve(c.n)
	epoch := ws.nextEpoch()
	visited := ws.visited
	best := 0
	for s := 0; s < c.n; s++ {
		if visited[s] == epoch || (s < len(removedNode) && removedNode[s]) {
			continue
		}
		visited[s] = epoch
		queue := ws.queue[:0]
		queue = append(queue, int32(s))
		size := 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			size++
			for j := c.rowStart[u]; j < c.rowStart[u+1]; j++ {
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
		if size > best {
			best = size
		}
	}
	return best
}

// LargestComponentEdgeMasked returns the size of the largest connected
// component of the snapshot with edges whose removedEdge[edgeID] is true
// treated as absent (all nodes stay present). It is the edge-removal
// analogue of LargestComponentMasked, under edge-targeted robustness
// sweeps. A removedEdge slice shorter than the edge count treats the
// missing tail as present.
func (c *CSR) LargestComponentEdgeMasked(ws *Workspace, removedEdge []bool) int {
	ws.Reserve(c.n)
	epoch := ws.nextEpoch()
	visited := ws.visited
	best := 0
	for s := 0; s < c.n; s++ {
		if visited[s] == epoch {
			continue
		}
		visited[s] = epoch
		queue := ws.queue[:0]
		queue = append(queue, int32(s))
		size := 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			size++
			for j := c.rowStart[u]; j < c.rowStart[u+1]; j++ {
				if e := int(c.edgeID[j]); e < len(removedEdge) && removedEdge[e] {
					continue
				}
				v := c.nbr[j]
				if visited[v] != epoch {
					visited[v] = epoch
					queue = append(queue, v)
				}
			}
		}
		ws.queue = queue
		if size > best {
			best = size
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
