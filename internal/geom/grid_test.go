package geom

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// ulps returns v moved k ulps (toward +Inf for k > 0).
func ulps(v float64, k int) float64 {
	for ; k > 0; k-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; k < 0; k++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// TestGridBoundsAreLowerBounds checks the property the attachment
// index's pruning rests on: the distance bound of the cell a point is
// filed in never exceeds the point's true distance. Points sit 0–3 ulps
// on either side of every computed column and row edge (where the
// division in CellAt can round into the neighbouring cell), and on the
// rect's own border, and are queried from their own row or column, where
// the bound is exact and any excess is a misfiled point.
func TestGridBoundsAreLowerBounds(t *testing.T) {
	r := rng.New(3)
	checks, bad := 0, 0
	for trial := 0; trial < 40; trial++ {
		rect := Rect{MinX: r.Float64() - 0.5, MinY: r.Float64() - 0.5}
		rect.MaxX = rect.MinX + 0.05 + 3*r.Float64()
		rect.MaxY = rect.MinY + 0.05 + 3*r.Float64()
		g := NewGrid(rect, 50+r.Intn(20000))
		nx, ny := g.Dims()
		for axis := 0; axis < 2; axis++ {
			lo, hi, w, n := rect.MinX, rect.MaxX, g.cw, nx
			if axis == 1 {
				lo, hi, w, n = rect.MinY, rect.MaxY, g.ch, ny
			}
			for c := 0; c <= n; c++ {
				edge := lo + float64(c)*w
				if c == n {
					edge = hi
				}
				for k := -3; k <= 3; k++ {
					v := math.Min(math.Max(ulps(edge, k), lo), hi)
					q := Point{X: v, Y: rect.MinY + r.Float64()*rect.Height()}
					if axis == 1 {
						q = Point{X: rect.MinX + r.Float64()*rect.Width(), Y: v}
					}
					cx, cy := g.CellAt(q)
					if q.X < g.xs[cx] || q.X > g.xs[cx+1] || q.Y < g.ys[cy] || q.Y > g.ys[cy+1] {
						t.Fatalf("CellAt(%v) = (%d, %d), whose computed edges [%v, %v] x [%v, %v] exclude it",
							q, cx, cy, g.xs[cx], g.xs[cx+1], g.ys[cy], g.ys[cy+1])
					}
					for i := 0; i < 16; i++ {
						p := Point{X: rect.MinX + r.Float64()*rect.Width(), Y: q.Y}
						if axis == 1 {
							p = Point{X: q.X, Y: rect.MinY + r.Float64()*rect.Height()}
						}
						checks++
						if g.RangeDistLB(p, cx, cy, cx, cy) > p.Dist(q) {
							bad++
						}
					}
				}
			}
		}
	}
	if bad > 0 {
		t.Fatalf("RangeDistLB exceeded the true distance in %d of %d checks", bad, checks)
	}
	if checks < 400_000 {
		t.Fatalf("only %d checks", checks)
	}
}

// TestGridComplementBound checks that ComplementDistLB lower-bounds the
// distance from a query to every stored point filed outside the cell
// range, for ranges that reach past the grid too.
func TestGridComplementBound(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 20; trial++ {
		rect := Rect{MinX: -1, MinY: 0.25, MaxX: 0.5 + r.Float64(), MaxY: 1 + 2*r.Float64()}
		g := NewGrid(rect, 3000)
		nx, ny := g.Dims()
		pts := rect.RandomPoints(r, 300)
		for i := 0; i < 300; i++ {
			p := rect.RandomPoint(r)
			cx0, cy0 := r.Intn(nx+4)-2, r.Intn(ny+4)-2
			cx1, cy1 := cx0+r.Intn(nx), cy0+r.Intn(ny)
			m := g.ComplementDistLB(p, cx0, cy0, cx1, cy1)
			for _, q := range pts {
				cx, cy := g.CellAt(q)
				if cx >= cx0 && cx <= cx1 && cy >= cy0 && cy <= cy1 {
					continue
				}
				if m > p.Dist(q) {
					t.Fatalf("ComplementDistLB(%v, [%d,%d]x[%d,%d]) = %v exceeds distance %v to %v in cell (%d, %d)",
						p, cx0, cx1, cy0, cy1, m, p.Dist(q), q, cx, cy)
				}
			}
		}
	}
}
