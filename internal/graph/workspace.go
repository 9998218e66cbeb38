package graph

import "sync"

// Workspace owns every scratch buffer a traversal kernel needs: weighted
// and hop distances, shortest-path-tree parents, the Dijkstra heap and
// distance buckets, the BFS queue, dense bitset frontiers, and an
// epoch-stamped visited array. One Workspace serves one traversal at a
// time; a sync.Pool (GetWorkspace / Release) recycles them so
// multi-source sweeps run allocation-free after warmup.
//
// The exported slices hold kernel outputs. After a CSR.DijkstraTo with
// no targets: Dist, Parent, ParentEdge. After a bounded one the same
// entries are final at the targets and along their parent chains,
// tentative at other nodes the run reached, and Inf and -1 at every node
// it did not reach. After CSR.BFS: Hop, Parent. Their contents are valid
// until the next kernel call on the same Workspace, and callers must not
// write them: after a single-target CSR.DijkstraTo, the next bucketed
// run resets only the labels that one set, trusting every other entry to
// still hold Inf and -1 (after any other kernel, or buffer growth, it
// resets all n). A single-target CSR.DijkstraTo also keeps its backward
// search's distances here, in one more float64 per node grown on its
// first run.
type Workspace struct {
	// Dist is the weighted distance per node (Inf when unreachable).
	Dist []float64
	// Hop is the BFS hop distance per node (-1 when unreachable).
	Hop []int32
	// Parent is the shortest-path-tree parent per node (-1 for the
	// source and unreachable nodes).
	Parent []int32
	// ParentEdge is the edge id into the parent (-1 likewise).
	ParentEdge []int32
	// BFSBottomUpLevels reports how many levels of the last CSR.BFS ran
	// bottom-up — a diagnostic for tests and benchmarks of the
	// direction-optimizing kernel; 0 after a pure top-down traversal.
	BFSBottomUpLevels int
	// DijkstraScanned reports how many adjacency rows the last Dijkstra
	// call scanned, whichever kernel ran: a node scanned again after a
	// later improvement counts again, and the single-target kernel counts
	// its forward and backward searches together. An exact work count for
	// tests and benchmarks.
	DijkstraScanned int

	heapNode []int32
	heapDist []float64
	// queue is the BFS and masked-component queue, and after a
	// single-target Dijkstra run the list of nodes it labelled (see
	// labelsN).
	queue   []int32
	visited []uint32
	epoch   uint32

	// distB holds the single-target Dijkstra's backward distances to its
	// target. An entry is valid only where visited carries that run's
	// epoch, so the buffer is never cleared. It is grown by the first
	// single-target run, so workspaces that never make one do not carry it.
	distB []float64

	// front/next are the dense bitset frontiers of the
	// direction-optimizing BFS, one bit per node.
	front []uint64
	next  []uint64

	// bktNext/bktPrev/bktOf plus bktHead form the bucketed Dijkstra's
	// circular monotone priority queue as intrusive doubly-linked lists:
	// each node is in at most one bucket (bktOf[v] = slot, or -1 when
	// dequeued), so the structure is bounded by n and never grows during
	// a traversal — distance improvements move the node between lists
	// instead of appending duplicate entries.
	bktNext []int32
	bktPrev []int32
	bktOf   []int32
	bktHead [nBuckets]int32

	// labelsN is the node count of the last single-target Dijkstra run
	// while that run's labels are intact: queue then lists the nodes
	// whose Dist, Parent, ParentEdge or bktOf entry it set, and every
	// other entry of those arrays still holds Inf or -1, so the next
	// bucketed run resets only the listed nodes instead of all n. It is
	// -1 once another kernel or a reallocation may have broken that:
	// BFS and the masked-component kernels reuse queue, and the heap
	// kernel and the multi-target bucketed kernel write labels they do
	// not list.
	labelsN int
}

// Reserve grows the buffers to hold n nodes. Shrinking never happens, so
// a pooled Workspace converges to the largest graph it has served. Every
// buffer's capacity is checked independently: a caller that grew only
// some buffers (or a future partial-growth path) can never leave another
// kernel with a short one.
func (ws *Workspace) Reserve(n int) {
	if cap(ws.Dist) < n || cap(ws.Parent) < n || cap(ws.ParentEdge) < n || cap(ws.bktOf) < n || cap(ws.queue) < n {
		ws.labelsN = -1 // fresh arrays hold zeros, not Inf and -1
	}
	if cap(ws.Dist) < n {
		ws.Dist = make([]float64, n)
	}
	ws.Dist = ws.Dist[:n]
	if cap(ws.Hop) < n {
		ws.Hop = make([]int32, n)
	}
	ws.Hop = ws.Hop[:n]
	if cap(ws.Parent) < n {
		ws.Parent = make([]int32, n)
	}
	ws.Parent = ws.Parent[:n]
	if cap(ws.ParentEdge) < n {
		ws.ParentEdge = make([]int32, n)
	}
	ws.ParentEdge = ws.ParentEdge[:n]
	if cap(ws.visited) < n {
		// Fresh visited stamps must not collide with a stale epoch.
		ws.visited = make([]uint32, n)
		ws.epoch = 0
	}
	ws.visited = ws.visited[:cap(ws.visited)]
	if cap(ws.queue) < n {
		ws.queue = make([]int32, 0, n)
	}
	if cap(ws.heapNode) < n {
		ws.heapNode = make([]int32, 0, n)
	}
	if cap(ws.heapDist) < n {
		ws.heapDist = make([]float64, 0, n)
	}
	words := (n + 63) / 64
	if cap(ws.front) < words {
		ws.front = make([]uint64, words)
	}
	ws.front = ws.front[:cap(ws.front)]
	if cap(ws.next) < words {
		ws.next = make([]uint64, words)
	}
	ws.next = ws.next[:cap(ws.next)]
	if cap(ws.bktNext) < n {
		ws.bktNext = make([]int32, n)
	}
	ws.bktNext = ws.bktNext[:n]
	if cap(ws.bktPrev) < n {
		ws.bktPrev = make([]int32, n)
	}
	ws.bktPrev = ws.bktPrev[:n]
	if cap(ws.bktOf) < n {
		ws.bktOf = make([]int32, n)
	}
	ws.bktOf = ws.bktOf[:n]
}

// reserveBackward grows the single-target Dijkstra's backward distance
// buffer to n nodes.
func (ws *Workspace) reserveBackward(n int) {
	if cap(ws.distB) < n {
		ws.distB = make([]float64, n)
	}
	ws.distB = ws.distB[:n]
}

// nextEpoch bumps the visited stamp, clearing the visited array only on
// the rare wraparound.
func (ws *Workspace) nextEpoch() uint32 {
	ws.epoch++
	if ws.epoch == 0 { // wrapped: stale stamps could collide, reset
		for i := range ws.visited {
			ws.visited[i] = 0
		}
		ws.epoch = 1
	}
	return ws.epoch
}

// markTargets stamps the distinct ids of targets under a fresh visited
// epoch — the bounded Dijkstra's stopping state — and returns the epoch
// with the number of distinct targets, or -1 when targets is empty (a
// full run, whose pending count never reaches 0).
func (ws *Workspace) markTargets(targets []int) (epoch uint32, pending int) {
	if len(targets) == 0 {
		return 0, -1
	}
	epoch = ws.nextEpoch()
	for _, t := range targets {
		if ws.visited[t] != epoch {
			ws.visited[t] = epoch
			pending++
		}
	}
	return epoch, pending
}

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace takes a Workspace from the shared pool, grown to n nodes.
// Pair with Release.
func GetWorkspace(n int) *Workspace {
	ws := wsPool.Get().(*Workspace)
	ws.Reserve(n)
	return ws
}

// Release returns ws to the pool. The caller must not touch ws (or any
// of its exported slices) afterwards.
func (ws *Workspace) Release() { wsPool.Put(ws) }
