package geom

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestDist(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if got := p.Dist(q); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
	if got := p.Dist2(q); got != 25 {
		t.Fatalf("Dist2 = %v, want 25", got)
	}
}

func TestDistSymmetry(t *testing.T) {
	err := quick.Check(func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		a := UnitSquare.RandomPoint(r)
		b := UnitSquare.RandomPoint(r)
		c := UnitSquare.RandomPoint(r)
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-12 {
			t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
		}
	}
}

// inside reports whether p lies in r, boundary included.
func inside(r Rect, p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// TestRectContains checks that Bounds and Union contain every point and
// rectangle they were built from, with the extreme points on the
// boundary, and nothing beyond it.
func TestRectContains(t *testing.T) {
	p := Point{1, 0.5}
	pts := []Point{{0, 1}, {2, 0}, {1.5, 0.75}}
	b := Bounds(p, pts)
	if b != (Rect{0, 0, 2, 1}) {
		t.Fatalf("Bounds = %v, want {0 0 2 1}", b)
	}
	for _, q := range append(pts, p) {
		if !inside(b, q) {
			t.Fatalf("Bounds %v does not contain %v", b, q)
		}
	}
	if inside(b, Point{2.1, 0.5}) {
		t.Fatal("exterior point contained")
	}
	if u := b.Union(Rect{-1, 0.5, 0.5, 3}); u != (Rect{-1, 0, 2, 3}) {
		t.Fatalf("Union = %v, want {-1 0 2 3}", u)
	}
}

func TestRectGeometry(t *testing.T) {
	r := Rect{1, 2, 4, 6}
	if r.Width() != 3 || r.Height() != 4 {
		t.Fatalf("Width/Height = %v/%v", r.Width(), r.Height())
	}
	if r.Diagonal() != 5 {
		t.Fatalf("Diagonal = %v, want 5", r.Diagonal())
	}
	if c := r.Center(); c.X != 2.5 || c.Y != 4 {
		t.Fatalf("Center = %v", c)
	}
}

func TestRandomPointsInside(t *testing.T) {
	r := rng.New(2)
	pts := UnitSquare.RandomPoints(r, 1000)
	if len(pts) != 1000 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !inside(UnitSquare, p) {
			t.Fatalf("point %v outside unit square", p)
		}
	}
}

func TestGaussianClusterClamped(t *testing.T) {
	r := rng.New(3)
	pts := UnitSquare.GaussianCluster(r, Point{0.01, 0.01}, 0.5, 500)
	for _, p := range pts {
		if !inside(UnitSquare, p) {
			t.Fatalf("cluster point %v escaped region", p)
		}
	}
}
