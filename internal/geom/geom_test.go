package geom

import (
	"math"
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

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 2, 1}
	if !r.Contains(Point{1, 0.5}) {
		t.Fatal("interior point not contained")
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{2, 1}) {
		t.Fatal("boundary points must be contained")
	}
	if r.Contains(Point{2.1, 0.5}) {
		t.Fatal("exterior point contained")
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
		if !UnitSquare.Contains(p) {
			t.Fatalf("point %v outside unit square", p)
		}
	}
}

func TestGaussianClusterClamped(t *testing.T) {
	r := rng.New(3)
	pts := UnitSquare.GaussianCluster(r, Point{0.01, 0.01}, 0.5, 500)
	for _, p := range pts {
		if !UnitSquare.Contains(p) {
			t.Fatalf("cluster point %v escaped region", p)
		}
	}
}

func TestKDTreeNearestMatchesBruteForce(t *testing.T) {
	r := rng.New(4)
	pts := UnitSquare.RandomPoints(r, 500)
	tree := NewKDTree(pts)
	for trial := 0; trial < 200; trial++ {
		q := UnitSquare.RandomPoint(r)
		gotIdx, gotD := tree.Nearest(q)
		bestIdx, bestD := -1, math.Inf(1)
		for i, p := range pts {
			if d := p.Dist(q); d < bestD {
				bestIdx, bestD = i, d
			}
		}
		if math.Abs(gotD-bestD) > 1e-12 {
			t.Fatalf("Nearest dist %v (idx %d), brute force %v (idx %d)", gotD, gotIdx, bestD, bestIdx)
		}
	}
}

func TestKDTreeRangeSearchMatchesBruteForce(t *testing.T) {
	r := rng.New(6)
	pts := UnitSquare.RandomPoints(r, 400)
	tree := NewKDTree(pts)
	for trial := 0; trial < 50; trial++ {
		q := UnitSquare.RandomPoint(r)
		radius := r.Float64() * 0.3
		got := tree.RangeSearch(q, radius)
		want := map[int]bool{}
		for i, p := range pts {
			if p.Dist(q) <= radius {
				want[i] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("RangeSearch size %d, want %d", len(got), len(want))
		}
		for _, idx := range got {
			if !want[idx] {
				t.Fatalf("RangeSearch returned %d outside radius", idx)
			}
		}
	}
}

func TestKDTreeNegativeRadius(t *testing.T) {
	tree := NewKDTree([]Point{{0, 0}})
	if got := tree.RangeSearch(Point{0, 0}, -1); got != nil {
		t.Fatal("negative radius should return nil")
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	pts := []Point{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.1, 0.1}}
	tree := NewKDTree(pts)
	idx, d := tree.Nearest(Point{0.5, 0.5})
	if d != 0 {
		t.Fatalf("Nearest to duplicate point: dist %v, want 0", d)
	}
	if idx < 0 || idx > 2 {
		t.Fatalf("Nearest returned index %d, want one of the duplicates", idx)
	}
	all := tree.RangeSearch(Point{0.5, 0.5}, 0)
	if len(all) != 3 {
		t.Fatalf("RangeSearch(0) over duplicates found %d, want 3", len(all))
	}
}

func TestKDTreeEmptyPanics(t *testing.T) {
	tree := NewKDTree(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Nearest on empty tree should panic")
		}
	}()
	tree.Nearest(Point{0, 0})
}

func TestKDTreeSinglePoint(t *testing.T) {
	tree := NewKDTree([]Point{{0.3, 0.7}})
	idx, d := tree.Nearest(Point{0.3, 0.7})
	if idx != 0 || d != 0 {
		t.Fatalf("Nearest = (%d, %v), want (0, 0)", idx, d)
	}
}
