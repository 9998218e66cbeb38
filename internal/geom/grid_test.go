package geom

import (
	"math"
	"math/rand"
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

// gridCase is one grid with the points stored in it (id i at pts[i]) and
// the points to query it from.
type gridCase struct {
	label   string
	g       *Grid
	pts     []Point
	queries []Point
}

// gridCases builds grids over random rects holding uniform points, a
// Gaussian cluster whose points the rect clamps into a corner, a few
// locations each stored many times, points 0–3 ulps either side of the
// grid's computed cell edges, a single point and none, and a shuffled
// lattice over the unit square. Queries are uniform over a rect a little
// larger than the grid's, the stored points themselves and edge points.
func gridCases(r *rand.Rand) []gridCase {
	var cases []gridCase
	for trial := 0; trial < 12; trial++ {
		rect := Rect{MinX: r.Float64() - 0.5, MinY: r.Float64() - 0.5}
		rect.MaxX = rect.MinX + 0.05 + 2*r.Float64()
		rect.MaxY = rect.MinY + 0.05 + 2*r.Float64()
		wide := Rect{MinX: rect.MinX - 0.1, MinY: rect.MinY - 0.1, MaxX: rect.MaxX + 0.1, MaxY: rect.MaxY + 0.1}
		corner := Point{X: rect.MinX, Y: rect.MaxY}
		sets := []struct {
			name string
			mk   func(g *Grid) []Point
		}{
			{"uniform", func(*Grid) []Point { return rect.RandomPoints(r, 400) }},
			{"clamped-cluster", func(*Grid) []Point {
				return rect.GaussianCluster(r, corner, rect.Width(), 400)
			}},
			{"co-located", func(*Grid) []Point {
				locs := rect.RandomPoints(r, 5)
				pts := make([]Point, 200)
				for i := range pts {
					pts[i] = locs[r.Intn(len(locs))]
				}
				return pts
			}},
			{"cell-edges", func(g *Grid) []Point { return edgePoints(r, g, rect) }},
			{"single", func(*Grid) []Point { return rect.RandomPoints(r, 1) }},
			{"empty", func(*Grid) []Point { return nil }},
		}
		for _, set := range sets {
			g := NewGrid(rect, 1+r.Intn(600))
			pts := set.mk(g)
			for i, p := range pts {
				g.Add(int32(i), p)
			}
			edges := edgePoints(r, g, rect)
			queries := append(wide.RandomPoints(r, 60), edges[:min(40, len(edges))]...)
			for i := 0; i < 20 && len(pts) > 0; i++ {
				queries = append(queries, pts[r.Intn(len(pts))])
			}
			cases = append(cases, gridCase{label: set.name, g: g, pts: pts, queries: queries})
		}
	}
	// A shuffled lattice of dyadic points queried from a finer lattice:
	// exact distance ties between points in different cells, which only
	// the id tie-break settles.
	for _, expected := range []int{4, 50, 289, 2000} {
		g := NewGrid(UnitSquare, expected)
		var pts, queries []Point
		for i := 0; i <= 32; i++ {
			for j := 0; j <= 32; j++ {
				q := Point{X: float64(i) / 32, Y: float64(j) / 32}
				queries = append(queries, q)
				if i%2 == 0 && j%2 == 0 {
					pts = append(pts, q)
				}
			}
		}
		r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		for i, p := range pts {
			g.Add(int32(i), p)
		}
		cases = append(cases, gridCase{label: "lattice", g: g, pts: pts, queries: queries})
	}
	return cases
}

// edgePoints returns points 0–3 ulps either side of each of g's computed
// column and row edges, clamped into rect, in shuffled order.
func edgePoints(r *rand.Rand, g *Grid, rect Rect) []Point {
	var pts []Point
	for _, e := range g.xs {
		for k := -3; k <= 3; k++ {
			x := math.Min(math.Max(ulps(e, k), rect.MinX), rect.MaxX)
			pts = append(pts, Point{X: x, Y: rect.MinY + r.Float64()*rect.Height()})
		}
	}
	for _, e := range g.ys {
		for k := -3; k <= 3; k++ {
			y := math.Min(math.Max(ulps(e, k), rect.MinY), rect.MaxY)
			pts = append(pts, Point{X: rect.MinX + r.Float64()*rect.Width(), Y: y})
		}
	}
	r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// TestGridNearestMatchesBruteForce holds Nearest to a scan of every
// stored point for the smallest (Dist2, id): the same id and the same
// squared distance, ties included.
func TestGridNearestMatchesBruteForce(t *testing.T) {
	checks := 0
	for _, c := range gridCases(rng.New(8)) {
		for _, q := range c.queries {
			got, gotD2 := c.g.Nearest(q, func(id int32) float64 { return q.Dist2(c.pts[id]) })
			want, wantD2 := int32(-1), math.Inf(1)
			for i, p := range c.pts {
				if d2 := q.Dist2(p); d2 < wantD2 {
					want, wantD2 = int32(i), d2
				}
			}
			if got != want || gotD2 != wantD2 {
				t.Fatalf("%s: Nearest(%v) = (%d, %v), brute force (%d, %v)", c.label, q, got, gotD2, want, wantD2)
			}
			checks++
		}
	}
	if checks < 5000 {
		t.Fatalf("only %d checks", checks)
	}
}

// TestGridNearMatchesBruteForce checks that Near visits each stored id at
// most once and every id within Dist2 <= r*r of the query, for radii 0,
// random, beyond the rect, infinite, and exactly or a few ulps around the
// distance to a stored point or to a computed cell edge, where rounding
// decides membership. A negative or NaN radius visits nothing.
func TestGridNearMatchesBruteForce(t *testing.T) {
	r := rng.New(9)
	checks := 0
	for _, c := range gridCases(r) {
		seen := make([]int, len(c.pts))
		for _, q := range c.queries {
			radii := []float64{0, 0.3 * r.Float64(), c.g.rect.Diagonal() + 1, math.Inf(1)}
			for k := -2; k <= 2; k++ {
				if len(c.pts) > 0 {
					radii = append(radii, ulps(q.Dist(c.pts[r.Intn(len(c.pts))]), k))
				}
				radii = append(radii, ulps(math.Abs(q.X-c.g.xs[r.Intn(len(c.g.xs))]), k),
					ulps(math.Abs(q.Y-c.g.ys[r.Intn(len(c.g.ys))]), k))
			}
			for _, rad := range radii {
				if rad < 0 {
					continue
				}
				for i := range seen {
					seen[i] = 0
				}
				c.g.Near(q, rad, func(id int32) { seen[id]++ })
				for i, p := range c.pts {
					if seen[i] > 1 {
						t.Fatalf("%s: Near(%v, %v) visited id %d %d times", c.label, q, rad, i, seen[i])
					}
					if seen[i] == 0 && q.Dist2(p) <= rad*rad {
						t.Fatalf("%s: Near(%v, %v) missed id %d at %v (Dist2 %v)", c.label, q, rad, i, p, q.Dist2(p))
					}
				}
				checks++
			}
			for _, rad := range []float64{-1, math.NaN()} {
				c.g.Near(q, rad, func(id int32) { t.Fatalf("%s: Near(%v, %v) visited id %d", c.label, q, rad, id) })
			}
		}
	}
	if checks < 50000 {
		t.Fatalf("only %d checks", checks)
	}
}

// The six TestKDTree tests below keep the names of the kd-tree's tests;
// Grid.Nearest and Grid.Near took over the kd-tree's Nearest and
// RangeSearch, and these tests hold them to the same cases. Near may
// visit ids beyond the radius, so the range tests apply the distance
// test a caller applies.

// gridOf stores pts in a grid over UnitSquare, id i at pts[i].
func gridOf(pts []Point) *Grid {
	g := NewGrid(UnitSquare, len(pts))
	for i, p := range pts {
		g.Add(int32(i), p)
	}
	return g
}

// within returns the ids Near visits from q whose points lie within
// radius of q.
func within(g *Grid, pts []Point, q Point, radius float64) []int {
	var ids []int
	g.Near(q, radius, func(id int32) {
		if pts[id].Dist(q) <= radius {
			ids = append(ids, int(id))
		}
	})
	return ids
}

func TestKDTreeNearestMatchesBruteForce(t *testing.T) {
	r := rng.New(4)
	pts := UnitSquare.RandomPoints(r, 500)
	g := gridOf(pts)
	for trial := 0; trial < 200; trial++ {
		q := UnitSquare.RandomPoint(r)
		gotIdx, gotD2 := g.Nearest(q, func(id int32) float64 { return q.Dist2(pts[id]) })
		bestIdx, bestD := -1, math.Inf(1)
		for i, p := range pts {
			if d := p.Dist(q); d < bestD {
				bestIdx, bestD = i, d
			}
		}
		if gotD := math.Sqrt(gotD2); math.Abs(gotD-bestD) > 1e-12 {
			t.Fatalf("Nearest dist %v (idx %d), brute force %v (idx %d)", gotD, gotIdx, bestD, bestIdx)
		}
	}
}

func TestKDTreeRangeSearchMatchesBruteForce(t *testing.T) {
	r := rng.New(6)
	pts := UnitSquare.RandomPoints(r, 400)
	g := gridOf(pts)
	for trial := 0; trial < 50; trial++ {
		q := UnitSquare.RandomPoint(r)
		radius := r.Float64() * 0.3
		got := within(g, pts, q, radius)
		want := map[int]bool{}
		for i, p := range pts {
			if p.Dist(q) <= radius {
				want[i] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Near within %v found %d, want %d", radius, len(got), len(want))
		}
		for _, idx := range got {
			if !want[idx] {
				t.Fatalf("Near returned %d outside radius", idx)
			}
		}
	}
}

func TestKDTreeNegativeRadius(t *testing.T) {
	g := gridOf([]Point{{0, 0}})
	g.Near(Point{0, 0}, -1, func(id int32) {
		t.Fatalf("negative radius visited id %d", id)
	})
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	pts := []Point{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.1, 0.1}}
	g := gridOf(pts)
	q := Point{0.5, 0.5}
	idx, d2 := g.Nearest(q, func(id int32) float64 { return q.Dist2(pts[id]) })
	if d2 != 0 {
		t.Fatalf("Nearest to duplicate point: dist² %v, want 0", d2)
	}
	if idx != 0 {
		t.Fatalf("Nearest returned index %d, want 0, the smallest of the duplicates", idx)
	}
	if all := within(g, pts, q, 0); len(all) != 3 {
		t.Fatalf("Near within 0 over duplicates found %d, want 3", len(all))
	}
}

// TestKDTreeEmptyPanics: the kd-tree panicked on an empty point set;
// the grid instead answers Nearest with (-1, +Inf) and visits nothing.
func TestKDTreeEmptyPanics(t *testing.T) {
	g := gridOf(nil)
	q := Point{0, 0}
	idx, d2 := g.Nearest(q, func(int32) float64 { t.Fatal("dist2 called on an empty grid"); return 0 })
	if idx != -1 || !math.IsInf(d2, 1) {
		t.Fatalf("Nearest on empty grid = (%d, %v), want (-1, +Inf)", idx, d2)
	}
	g.Near(q, math.Inf(1), func(id int32) { t.Fatalf("Near on empty grid visited id %d", id) })
}

func TestKDTreeSinglePoint(t *testing.T) {
	pts := []Point{{0.3, 0.7}}
	g := gridOf(pts)
	q := pts[0]
	idx, d2 := g.Nearest(q, func(id int32) float64 { return q.Dist2(pts[id]) })
	if idx != 0 || d2 != 0 {
		t.Fatalf("Nearest = (%d, %v), want (0, 0)", idx, d2)
	}
}
