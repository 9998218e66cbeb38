package geom

import "math"

// Grid is an incremental uniform grid over a fixed rectangle: points are
// appended one at a time (the growth models insert every arrival) and
// bucketed into equal-size cells, so spatial queries can enumerate
// candidates cell by cell in expanding rings with a proven distance
// lower bound per ring instead of scanning every stored point.
//
// The contract that makes the lower bounds sound: every added point must
// lie inside the grid rectangle (callers build the rect as a bounding box
// of all points they will ever insert). A point is stored in a cell whose
// computed edges enclose its coordinates (see CellAt), so the distance
// from a query point to a cell's computed rectangle never exceeds the
// distance to any point stored in that cell.
type Grid struct {
	rect   Rect
	nx, ny int
	cw, ch float64 // cell width/height; 0 when the rect is degenerate
	// xs[c] and ys[c] are the computed cell edges: column c spans
	// [xs[c], xs[c+1]]. The outer edges are the rect's own, so a point on
	// the rect border lies inside its cell's computed edges too.
	xs, ys []float64
	cells  [][]int32
}

// NewGrid builds an empty grid over rect sized for about `expected`
// points, targeting a small constant number of points per cell. A
// degenerate rectangle (zero width or height) collapses to a single cell,
// which keeps every query correct (all bounds become 0) at the cost of
// pruning.
func NewGrid(rect Rect, expected int) *Grid {
	side := 1
	if expected > 3 {
		side = int(math.Ceil(math.Sqrt(float64(expected) / 3)))
	}
	g := &Grid{rect: rect, nx: side, ny: side}
	if rect.Width() <= 0 || rect.Height() <= 0 {
		g.nx, g.ny = 1, 1
	}
	g.cw = rect.Width() / float64(g.nx)
	g.ch = rect.Height() / float64(g.ny)
	g.xs = cellEdges(rect.MinX, rect.MaxX, g.cw, g.nx)
	g.ys = cellEdges(rect.MinY, rect.MaxY, g.ch, g.ny)
	g.cells = make([][]int32, g.nx*g.ny)
	return g
}

// cellEdges returns the n+1 computed edges of n cells of width w
// spanning [lo, hi]: lo + c*w, capped at hi, with hi as the last edge.
// Rounding is monotone, so the edges never decrease.
func cellEdges(lo, hi, w float64, n int) []float64 {
	e := make([]float64, n+1)
	for c := range n {
		e[c] = math.Min(lo+float64(c)*w, hi)
	}
	e[n] = hi
	return e
}

// Dims returns the cell-grid dimensions (columns, rows).
func (g *Grid) Dims() (nx, ny int) { return g.nx, g.ny }

// CellAt returns the (column, row) of the cell containing p, clamped to
// the grid. For a point inside the rect (the Add contract) the cell's
// computed edges enclose p: the division can land a point within a few
// ulps of an edge in the neighbouring cell, so CellAt steps back across
// the edge it lies outside of.
func (g *Grid) CellAt(p Point) (cx, cy int) {
	if g.cw > 0 {
		cx = int((p.X - g.rect.MinX) / g.cw)
	}
	if g.ch > 0 {
		cy = int((p.Y - g.rect.MinY) / g.ch)
	}
	return enclosingCell(g.xs, clampInt(cx, 0, g.nx-1), p.X),
		enclosingCell(g.ys, clampInt(cy, 0, g.ny-1), p.Y)
}

// enclosingCell moves c to the neighbouring cell while v lies outside
// [edges[c], edges[c+1]].
func enclosingCell(edges []float64, c int, v float64) int {
	for c > 0 && v < edges[c] {
		c--
	}
	for c < len(edges)-2 && v > edges[c+1] {
		c++
	}
	return c
}

// CellIndex flattens (cx, cy) into an index into the cell array.
func (g *Grid) CellIndex(cx, cy int) int { return cy*g.nx + cx }

// Add stores id at point p. p must lie inside the grid rectangle (see the
// type comment); ids are opaque to the grid.
func (g *Grid) Add(id int32, p Point) {
	cx, cy := g.CellAt(p)
	ci := g.CellIndex(cx, cy)
	g.cells[ci] = append(g.cells[ci], id)
}

// RangeDistLB returns the distance from p to the computed rectangle
// covered by the inclusive cell range [cx0, cx1] x [cy0, cy1] — a proven
// lower bound on the distance from p to any point stored in any cell of
// the range.
func (g *Grid) RangeDistLB(p Point, cx0, cy0, cx1, cy1 int) float64 {
	dx := edgeGap(g.xs[cx0], g.xs[cx1+1], p.X)
	dy := edgeGap(g.ys[cy0], g.ys[cy1+1], p.Y)
	return math.Sqrt(dx*dx + dy*dy)
}

// edgeGap is the distance from v to the interval [lo, hi], 0 inside it.
func edgeGap(lo, hi, v float64) float64 {
	if v < lo {
		return lo - v
	}
	if v > hi {
		return v - hi
	}
	return 0
}

// ComplementDistLB returns the distance from p to the complement of the
// computed rectangle covering the inclusive cell range
// [cx0, cx1] x [cy0, cy1] — the margin between p and the nearest edge of
// that rect, or 0 when p lies on or outside it. Every point stored in a
// cell outside the range lies outside the rect, so the margin
// lower-bounds p's distance to all of them. The range may extend beyond
// the grid (ring enumeration passes unclipped bands); a side that reaches
// the grid border has no cells beyond it and does not bound the margin,
// so a range covering the whole grid returns +Inf.
func (g *Grid) ComplementDistLB(p Point, cx0, cy0, cx1, cy1 int) float64 {
	m := math.Inf(1)
	if cx0 > 0 {
		m = math.Min(m, p.X-g.xs[min(cx0, g.nx)])
	}
	if cx1 < g.nx-1 {
		m = math.Min(m, g.xs[max(cx1+1, 0)]-p.X)
	}
	if cy0 > 0 {
		m = math.Min(m, p.Y-g.ys[min(cy0, g.ny)])
	}
	if cy1 < g.ny-1 {
		m = math.Min(m, g.ys[max(cy1+1, 0)]-p.Y)
	}
	if m < 0 {
		return 0
	}
	return m
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
