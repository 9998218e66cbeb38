package core

import (
	"math"

	"repro/internal/geom"
)

// gridMinNodes is the size from which the growth loops engage the grid
// index: below it the exhaustive scan wins on constant factors.
const gridMinNodes = 1024

// The candidate stats the growth index maintains lower bounds for. Each
// is either immutable once a node arrives (its tree hop count, its
// distance to the root) or monotone non-decreasing over the run (degree,
// pairwise hop sum) — so a min recorded at insertion time remains a
// valid lower bound on the stat's current value forever.
const (
	statHops     = iota // tree hop distance to root (immutable)
	statRootDist        // Euclidean distance to root (immutable)
	statDeg             // degree at insertion (monotone under growth)
	statSumHops         // sum of hop distances to all nodes (monotone)
	numStat
)

// candList keeps the k lexicographically smallest (cost, id) candidates
// seen so far, sorted ascending. The ordering is canonical — independent
// of enumeration order — which is what lets the grid index's ring
// enumeration reproduce the exhaustive scan's selection bit-for-bit,
// ties included.
type candList struct {
	k int
	c []cand
}

type cand struct {
	j    int
	cost float64
}

func (b *candList) reset()             { b.c = b.c[:0] }
func (b *candList) empty() bool        { return len(b.c) == 0 }
func (b *candList) full() bool         { return len(b.c) >= b.k }
func (b *candList) worstCost() float64 { return b.c[len(b.c)-1].cost }

// consider inserts (j, cost) if it is among the k smallest in (cost, j)
// order.
func (b *candList) consider(j int, cost float64) {
	if len(b.c) >= b.k {
		w := b.c[len(b.c)-1]
		if cost > w.cost || (cost == w.cost && j > w.j) {
			return
		}
		b.c = b.c[:len(b.c)-1]
	}
	i := len(b.c)
	b.c = append(b.c, cand{j, cost})
	for i > 0 && (b.c[i-1].cost > cost || (b.c[i-1].cost == cost && b.c[i-1].j > j)) {
		b.c[i], b.c[i-1] = b.c[i-1], b.c[i]
		i--
	}
}

// growthIndex is the spatial index behind the O(n log n) growth path: a
// uniform grid over the growth region holding every arrived node,
// annotated with stale-min stats per fine cell, per coarse block of
// gridBlock x gridBlock cells, and globally. A query enumerates coarse
// blocks in expanding Chebyshev rings around the arrival and prunes any
// ring / block / cell whose cost lower bound (distance weight times the
// exact point-to-rect distance, plus each stat weight times the region's
// stat min) strictly exceeds the current k-th best cost. Pruning is
// strict-only and the kept-candidate ordering is canonical, so the
// selected attachments — including every tie-break — match the
// exhaustive scan bit-for-bit.
type growthIndex struct {
	grid      *geom.Grid
	blk       int // cells per coarse block side
	bnx, bny  int
	track     [numStat]bool
	cellMin   [numStat][]float64
	blockMin  [numStat][]float64
	globalMin [numStat]float64
}

// gridBlock is the coarse-block side in fine cells: ring enumeration and
// first-level pruning run at block granularity, so the per-ring overhead
// is 1/64th of cell granularity while empty regions still prune early.
const gridBlock = 8

// newGrowthIndex builds an empty index over rect sized for `expected`
// nodes, tracking lower bounds for the stats in track. rect must contain
// every point that will be inserted (bound the region, the fixed
// arrivals, and the root).
func newGrowthIndex(rect geom.Rect, expected int, track [numStat]bool) *growthIndex {
	ix := &growthIndex{grid: geom.NewGrid(rect, expected), blk: gridBlock, track: track}
	nx, ny := ix.grid.Dims()
	ix.bnx = (nx + ix.blk - 1) / ix.blk
	ix.bny = (ny + ix.blk - 1) / ix.blk
	for s := 0; s < numStat; s++ {
		ix.globalMin[s] = math.Inf(1)
		if !track[s] {
			continue
		}
		ix.cellMin[s] = make([]float64, nx*ny)
		for i := range ix.cellMin[s] {
			ix.cellMin[s][i] = math.Inf(1)
		}
		ix.blockMin[s] = make([]float64, ix.bnx*ix.bny)
		for i := range ix.blockMin[s] {
			ix.blockMin[s][i] = math.Inf(1)
		}
	}
	return ix
}

// add inserts node id at p with its current stat values. Insertion-time
// values stay valid lower bounds (see the stat constants).
func (ix *growthIndex) add(id int32, p geom.Point, vals *[numStat]float64) {
	cx, cy := ix.grid.CellAt(p)
	ci := ix.grid.CellIndex(cx, cy)
	bi := (cy/ix.blk)*ix.bnx + cx/ix.blk
	ix.grid.Add(id, p)
	for s := 0; s < numStat; s++ {
		if !ix.track[s] {
			continue
		}
		v := vals[s]
		if v < ix.cellMin[s][ci] {
			ix.cellMin[s][ci] = v
		}
		if v < ix.blockMin[s][bi] {
			ix.blockMin[s][bi] = v
		}
		if v < ix.globalMin[s] {
			ix.globalMin[s] = v
		}
	}
}

// search enumerates candidates for an arrival at p, calling eval exactly
// once for every stored id it cannot prove is outside the k best. eval
// must apply feasibility, compute the exact cost, and update the
// caller's candList; full/worst expose that list's state back to the
// pruning. distW scales the distance lower bounds (the summed weight on
// candidate distance in the objective), statW scales the per-stat mins,
// and maxLen caps candidate distance (pass +Inf when no length
// constraint applies in this pass): regions provably beyond maxLen are
// skipped even while the list is short, because a length constraint
// makes their candidates infeasible outright.
//
// Soundness of every prune is strict inequality against a true lower
// bound, so candidates tied with the current k-th best are always still
// evaluated and the final list is exactly the exhaustive scan's.
func (ix *growthIndex) search(p geom.Point, distW float64, statW *[numStat]float64, maxLen float64, full func() bool, worst func() float64, eval func(j int32)) {
	g := ix.grid
	nx, ny := g.Dims()
	pcx, pcy := g.CellAt(p)
	pbx, pby := pcx/ix.blk, pcy/ix.blk
	maxRing := maxOf(pbx, ix.bnx-1-pbx, pby, ix.bny-1-pby)
	statFloor := 0.0
	for s := 0; s < numStat; s++ {
		if statW[s] != 0 && ix.track[s] && !math.IsInf(ix.globalMin[s], 1) {
			statFloor += statW[s] * ix.globalMin[s]
		}
	}
	for k := 0; k <= maxRing; k++ {
		if k > 0 {
			// All candidates at block rings >= k lie outside the band of
			// blocks within Chebyshev distance k-1 of p's block, hence at
			// least the band margin away from p.
			band := k - 1
			ringD := g.ComplementDistLB(p,
				(pbx-band)*ix.blk, (pby-band)*ix.blk,
				(pbx+band)*ix.blk+ix.blk-1, (pby+band)*ix.blk+ix.blk-1)
			if ringD > maxLen {
				return
			}
			if full() && distW*ringD+statFloor > worst() {
				return
			}
		}
		ix.forEachRingBlock(pbx, pby, k, func(bx, by int) {
			cx0, cy0 := bx*ix.blk, by*ix.blk
			cx1, cy1 := minOf(cx0+ix.blk-1, nx-1), minOf(cy0+ix.blk-1, ny-1)
			d := g.RangeDistLB(p, cx0, cy0, cx1, cy1)
			if d > maxLen {
				return
			}
			isFull := full()
			if isFull && distW*d+ix.statFloorAt(statW, ix.blockMin[:], by*ix.bnx+bx) > worst() {
				return
			}
			for cy := cy0; cy <= cy1; cy++ {
				for cx := cx0; cx <= cx1; cx++ {
					ci := g.CellIndex(cx, cy)
					ids := g.CellIDs(ci)
					if len(ids) == 0 {
						continue
					}
					cd := g.CellDistLB(p, cx, cy)
					if cd > maxLen {
						continue
					}
					if full() && distW*cd+ix.statFloorAt(statW, ix.cellMin[:], ci) > worst() {
						continue
					}
					for _, id := range ids {
						eval(id)
					}
				}
			}
		})
	}
}

// statFloorAt sums the weighted stat minimums of one region (cell or
// block); +Inf mins (region holds no tracked value yet) propagate so an
// empty region prunes immediately once the list is full.
func (ix *growthIndex) statFloorAt(statW *[numStat]float64, mins [][]float64, i int) float64 {
	f := 0.0
	for s := 0; s < numStat; s++ {
		if statW[s] != 0 && mins[s] != nil {
			f += statW[s] * mins[s][i]
		}
	}
	return f
}

// forEachRingBlock visits the in-range coarse blocks at exactly Chebyshev
// distance k from (pbx, pby).
func (ix *growthIndex) forEachRingBlock(pbx, pby, k int, fn func(bx, by int)) {
	if k == 0 {
		if pbx >= 0 && pbx < ix.bnx && pby >= 0 && pby < ix.bny {
			fn(pbx, pby)
		}
		return
	}
	for _, by := range [2]int{pby - k, pby + k} {
		if by < 0 || by >= ix.bny {
			continue
		}
		for bx := maxOf(pbx-k, 0); bx <= minOf(pbx+k, ix.bnx-1); bx++ {
			fn(bx, by)
		}
	}
	for _, bx := range [2]int{pbx - k, pbx + k} {
		if bx < 0 || bx >= ix.bnx {
			continue
		}
		for by := maxOf(pby-k+1, 0); by <= minOf(pby+k-1, ix.bny-1); by++ {
			fn(bx, by)
		}
	}
}

// growthBound returns a rectangle covering every point a growth run can
// insert: the placement region, any fixed arrival locations, and the
// root. The grid's lower-bound contract requires all inserted points
// inside its rect.
func growthBound(region geom.Rect, arrivals []geom.Point, root geom.Point) geom.Rect {
	r := region
	grow := func(p geom.Point) {
		r.MinX = math.Min(r.MinX, p.X)
		r.MinY = math.Min(r.MinY, p.Y)
		r.MaxX = math.Max(r.MaxX, p.X)
		r.MaxY = math.Max(r.MaxY, p.Y)
	}
	grow(root)
	for _, p := range arrivals {
		grow(p)
	}
	return r
}

func minOf(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxOf(vs ...int) int {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
