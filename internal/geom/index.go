package geom

import "math"

// IndexStats is the number of per-point stat slots an Index keeps lower
// bounds for. What a slot holds is the caller's choice; the contract is
// that a point's value in a slot is fixed once the point is added, or
// only grows afterwards, so a minimum recorded at insertion time stays a
// valid lower bound on the current value forever.
const IndexStats = 3

// Cand is one candidate of a CandList: an index id and its cost.
type Cand struct {
	ID   int
	Cost float64
}

// CandList keeps the k lexicographically smallest (cost, id) candidates
// seen so far, sorted ascending. The ordering is canonical — independent
// of enumeration order — which is what lets an Index search reproduce an
// exhaustive scan's selection bit-for-bit, ties included: a scan over ids
// in ascending order with a first-wins `cost < best` picks the same
// candidate as a CandList with k = 1.
type CandList struct {
	k int
	c []Cand
}

// NewCandList returns an empty list keeping the k best candidates.
func NewCandList(k int) *CandList { return &CandList{k: k, c: make([]Cand, 0, k+1)} }

// Reset empties the list.
func (b *CandList) Reset() { b.c = b.c[:0] }

// Empty reports whether no candidate has been kept.
func (b *CandList) Empty() bool { return len(b.c) == 0 }

// Best returns the kept candidates in ascending (cost, id) order.
// Callers must not mutate the returned slice.
func (b *CandList) Best() []Cand { return b.c }

// Consider inserts (id, cost) if it is among the k smallest in
// (cost, id) order.
func (b *CandList) Consider(id int, cost float64) {
	if len(b.c) >= b.k {
		w := b.c[len(b.c)-1]
		if cost > w.Cost || (cost == w.Cost && id > w.ID) {
			return
		}
		b.c = b.c[:len(b.c)-1]
	}
	i := len(b.c)
	b.c = append(b.c, Cand{id, cost})
	for i > 0 && (b.c[i-1].Cost > cost || (b.c[i-1].Cost == cost && b.c[i-1].ID > id)) {
		b.c[i], b.c[i-1] = b.c[i-1], b.c[i]
		i--
	}
}

// pruneSlack is the relative margin by which a region's cost lower bound
// must exceed the k-th best cost before the region is skipped. A bound
// sums the same quantities as a cost but in a different order, so it can
// exceed the cost of a candidate it bounds by a few ulps; the slack keeps
// such a candidate, which may tie the k-th best, from being dropped.
const pruneSlack = 0x1p-40

// admits reports whether a region whose costs are at least lb may still
// hold one of the k best: always while the list is short, and otherwise
// unless lb exceeds the k-th best cost by more than pruneSlack. A NaN
// bound admits.
func (b *CandList) admits(lb float64) bool {
	if len(b.c) < b.k {
		return true
	}
	w := b.c[len(b.c)-1].Cost
	return !(lb > w+math.Abs(w)*pruneSlack)
}

// Index is the attachment index every incremental designer searches: a
// uniform grid over the region holding every attached point, annotated
// with stale-min stats per fine cell, per coarse square block of cells,
// and globally. A search enumerates coarse blocks in
// expanding Chebyshev rings around the query point and prunes any ring,
// block or cell whose cost lower bound (distance weight times the
// point-to-rect distance, plus each stat weight times the region's stat
// min) exceeds the current k-th best cost. Pruning only drops regions
// that provably hold no candidate tied with or better than the k-th
// best, and the kept-candidate ordering is canonical, so the selection —
// every tie-break included — is the exhaustive scan's.
//
// The work per query is not logarithmic: the blocks a search visits grow
// with the number of points stored. Growing HOT with two links per
// arrival and distance weight 8, a search visits 13.0 blocks at 4k nodes
// (7 cells a side there), 28.4 at 16k and 66.6 at 50k (8 cells a side)
// while it evaluates 27, 35 and 38 candidates; an arrival takes 5–7,
// 11–12 and 16 µs on a 2-vCPU Xeon VM.
type Index struct {
	grid      *Grid
	blk       int // cells per coarse block side
	bnx, bny  int
	track     [IndexStats]bool
	cellMin   [IndexStats][]float64
	blockMin  [IndexStats][]float64
	globalMin [IndexStats]float64
	evals     int
}

// maxBlock caps the coarse-block side in fine cells. Ring enumeration and
// first-level pruning run at block granularity, so on large grids the
// per-ring overhead is 1/64th of cell granularity while empty regions
// still prune early. A block side of about the square root of the grid
// side keeps small grids from collapsing into a block or two, which
// would leave every cell to the cell-level bound: at 200 MMP customers
// 8-cell blocks made the index slower than the exhaustive scan.
const maxBlock = 8

// NewIndex builds an empty index over rect sized for `expected` points,
// tracking lower bounds for the stat slots in track. rect must contain
// every point that will be added.
func NewIndex(rect Rect, expected int, track [IndexStats]bool) *Index {
	ix := &Index{grid: NewGrid(rect, expected), track: track}
	nx, ny := ix.grid.Dims()
	ix.blk = min(maxBlock, max(2, int(math.Ceil(math.Sqrt(float64(nx))))))
	ix.bnx = (nx + ix.blk - 1) / ix.blk
	ix.bny = (ny + ix.blk - 1) / ix.blk
	for s := range IndexStats {
		ix.globalMin[s] = math.Inf(1)
		if !track[s] {
			continue
		}
		ix.cellMin[s] = infs(nx * ny)
		ix.blockMin[s] = infs(ix.bnx * ix.bny)
	}
	return ix
}

func infs(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Inf(1)
	}
	return v
}

// Add stores id at p with its current stat values. Insertion-time values
// stay valid lower bounds (see IndexStats).
func (ix *Index) Add(id int32, p Point, vals *[IndexStats]float64) {
	cx, cy := ix.grid.CellAt(p)
	ci := ix.grid.CellIndex(cx, cy)
	bi := (cy/ix.blk)*ix.bnx + cx/ix.blk
	ix.grid.Add(id, p)
	for s := range IndexStats {
		if !ix.track[s] {
			continue
		}
		v := vals[s]
		ix.cellMin[s][ci] = math.Min(ix.cellMin[s][ci], v)
		ix.blockMin[s][bi] = math.Min(ix.blockMin[s][bi], v)
		ix.globalMin[s] = math.Min(ix.globalMin[s], v)
	}
}

// Evals returns the number of candidates all searches so far have handed
// to eval: the exact work count of the index.
func (ix *Index) Evals() int { return ix.evals }

// Search enumerates candidates for a query at p, calling eval exactly
// once for every stored id it cannot prove is outside best's k best. eval
// must apply feasibility, compute the exact cost, and call
// best.Consider. distW scales the distance lower bounds (the summed weight
// on candidate distance in the objective), statW scales the per-slot
// mins, and maxLen caps candidate distance (pass +Inf when no length
// constraint applies): regions provably beyond maxLen are skipped even
// while the list is short, because a length constraint makes their
// candidates infeasible outright.
func (ix *Index) Search(p Point, distW float64, statW *[IndexStats]float64, maxLen float64, best *CandList, eval func(id int32)) {
	g := ix.grid
	pcx, pcy := g.CellAt(p)
	b := ix.blk
	pbx, pby := pcx/b, pcy/b
	maxRing := max(pbx, ix.bnx-1-pbx, pby, ix.bny-1-pby)
	statFloor := 0.0
	for s := range IndexStats {
		if statW[s] != 0 && ix.track[s] && !math.IsInf(ix.globalMin[s], 1) {
			statFloor += statW[s] * ix.globalMin[s]
		}
	}
	q := query{ix: ix, p: p, distW: distW, statW: statW, maxLen: maxLen, best: best, eval: eval}
	for k := 0; k <= maxRing; k++ {
		if k > 0 {
			// All candidates at block rings >= k lie outside the band of
			// blocks within Chebyshev distance k-1 of p's block, hence at
			// least the band margin away from p.
			band := k - 1
			ringD := g.ComplementDistLB(p,
				(pbx-band)*b, (pby-band)*b, (pbx+band)*b+b-1, (pby+band)*b+b-1)
			if ringD > maxLen || !best.admits(distW*ringD+statFloor) {
				return
			}
		}
		forRing(pbx, pby, k, ix.bnx, ix.bny, q.block)
	}
}

// query is one Search in progress.
type query struct {
	ix     *Index
	p      Point
	distW  float64
	statW  *[IndexStats]float64
	maxLen float64
	best   *CandList
	eval   func(id int32)
}

// block searches coarse block (bx, by): one bound for the whole block,
// then one per non-empty cell from the block's column and row gaps,
// which are computed once per block.
func (q *query) block(bx, by int) {
	ix, g := q.ix, q.ix.grid
	nx, ny := g.Dims()
	cx0, cy0 := bx*ix.blk, by*ix.blk
	cx1, cy1 := min(cx0+ix.blk-1, nx-1), min(cy0+ix.blk-1, ny-1)
	d := g.RangeDistLB(q.p, cx0, cy0, cx1, cy1)
	if d > q.maxLen || !q.best.admits(q.distW*d+ix.statFloorAt(q.statW, &ix.blockMin, by*ix.bnx+bx)) {
		return
	}
	var gx2, gy2 [maxBlock]float64 // squared column and row gaps
	for cx := cx0; cx <= cx1; cx++ {
		dx := edgeGap(g.xs[cx], g.xs[cx+1], q.p.X)
		gx2[cx-cx0] = dx * dx
	}
	for cy := cy0; cy <= cy1; cy++ {
		dy := edgeGap(g.ys[cy], g.ys[cy+1], q.p.Y)
		gy2[cy-cy0] = dy * dy
	}
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			ci := cy*nx + cx
			ids := g.cells[ci]
			if len(ids) == 0 {
				continue
			}
			cd := math.Sqrt(gx2[cx-cx0] + gy2[cy-cy0])
			if cd > q.maxLen || !q.best.admits(q.distW*cd+ix.statFloorAt(q.statW, &ix.cellMin, ci)) {
				continue
			}
			ix.evals += len(ids)
			for _, id := range ids {
				q.eval(id)
			}
		}
	}
}

// statFloorAt sums the weighted stat minimums of one region (cell or
// block); +Inf mins (region holds no tracked value yet) propagate so an
// empty region prunes immediately once the list is full.
func (ix *Index) statFloorAt(statW *[IndexStats]float64, mins *[IndexStats][]float64, i int) float64 {
	f := 0.0
	for s := range IndexStats {
		if statW[s] != 0 && mins[s] != nil {
			f += statW[s] * mins[s][i]
		}
	}
	return f
}
