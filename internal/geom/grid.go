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
// of all points they will ever insert). A point is stored in the cell
// that geometrically contains it, so the distance from a query point to a
// cell's rectangle never exceeds the distance to any point stored in that
// cell.
type Grid struct {
	rect   Rect
	nx, ny int
	cw, ch float64 // cell width/height; 0 when the rect is degenerate
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
	g.cells = make([][]int32, g.nx*g.ny)
	return g
}

// Dims returns the cell-grid dimensions (columns, rows).
func (g *Grid) Dims() (nx, ny int) { return g.nx, g.ny }

// CellAt returns the (column, row) of the cell containing p, clamped to
// the grid. Points inside the rect (the Add contract) always land in the
// cell that geometrically contains them.
func (g *Grid) CellAt(p Point) (cx, cy int) {
	if g.cw > 0 {
		cx = int((p.X - g.rect.MinX) / g.cw)
	}
	if g.ch > 0 {
		cy = int((p.Y - g.rect.MinY) / g.ch)
	}
	return clampInt(cx, 0, g.nx-1), clampInt(cy, 0, g.ny-1)
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

// CellIDs returns the ids stored in cell index ci, in insertion order.
// Callers must not mutate the returned slice.
func (g *Grid) CellIDs(ci int) []int32 { return g.cells[ci] }

// CellDistLB returns the exact distance from p to cell (cx, cy)'s
// rectangle — a proven lower bound on the distance from p to any point
// stored in that cell (0 when p lies inside it).
func (g *Grid) CellDistLB(p Point, cx, cy int) float64 {
	return g.RangeDistLB(p, cx, cy, cx, cy)
}

// RangeDistLB returns the distance from p to the rectangle covered by the
// inclusive cell range [cx0, cx1] x [cy0, cy1] — a proven lower bound on
// the distance from p to any point stored in any cell of the range. The
// growth index uses it for coarse blocks of cells.
func (g *Grid) RangeDistLB(p Point, cx0, cy0, cx1, cy1 int) float64 {
	minX := g.rect.MinX + float64(cx0)*g.cw
	maxX := g.rect.MinX + float64(cx1+1)*g.cw
	minY := g.rect.MinY + float64(cy0)*g.ch
	maxY := g.rect.MinY + float64(cy1+1)*g.ch
	dx := math.Max(0, math.Max(minX-p.X, p.X-maxX))
	dy := math.Max(0, math.Max(minY-p.Y, p.Y-maxY))
	return math.Sqrt(dx*dx + dy*dy)
}

// ComplementDistLB returns the distance from p to the complement of the
// axis-aligned rectangle covering the inclusive cell range
// [cx0, cx1] x [cy0, cy1] — the margin between p and the nearest edge of
// that rect, or 0 when p lies on or outside it. The range may extend
// beyond the grid (ring enumeration passes unclipped bands); every point
// stored in a cell outside the range lies outside the rect, so the
// margin lower-bounds p's distance to all of them.
func (g *Grid) ComplementDistLB(p Point, cx0, cy0, cx1, cy1 int) float64 {
	minX := g.rect.MinX + float64(cx0)*g.cw
	maxX := g.rect.MinX + float64(cx1+1)*g.cw
	minY := g.rect.MinY + float64(cy0)*g.ch
	maxY := g.rect.MinY + float64(cy1+1)*g.ch
	m := math.Min(math.Min(p.X-minX, maxX-p.X), math.Min(p.Y-minY, maxY-p.Y))
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
