package geom

import (
	"math"
	"sort"
)

// KDTree is a static 2-d tree over a fixed point set, built once and then
// queried for nearest neighbours and radius ranges. The incremental generators
// (FKP, buy-at-bulk) query it heavily, so Nearest avoids allocation.
type KDTree struct {
	pts  []Point // points in tree order
	idx  []int   // original index of pts[i]
	axis []int8  // splitting axis per node (0 = x, 1 = y)
}

// NewKDTree builds a kd-tree over pts. The tree keeps its own copy of the
// coordinates; the caller's slice is not retained.
func NewKDTree(pts []Point) *KDTree {
	n := len(pts)
	t := &KDTree{
		pts:  make([]Point, n),
		idx:  make([]int, n),
		axis: make([]int8, n),
	}
	copy(t.pts, pts)
	for i := range t.idx {
		t.idx[i] = i
	}
	t.build(0, n, 0)
	return t
}

// build arranges pts[lo:hi] into an implicit kd-tree: the median element
// (by the splitting axis) is placed at position mid, with the left subtree
// in [lo,mid) and right subtree in (mid,hi].
func (t *KDTree) build(lo, hi, depth int) {
	if hi-lo <= 0 {
		return
	}
	ax := int8(depth % 2)
	mid := (lo + hi) / 2
	t.nthElement(lo, hi, mid, ax)
	t.axis[mid] = ax
	t.build(lo, mid, depth+1)
	t.build(mid+1, hi, depth+1)
}

// nthElement partially sorts [lo,hi) so the element at position n is the
// one that full sorting by axis would place there. Lomuto quickselect
// with a median-of-three pivot: each round recurses on a strictly
// smaller range, so termination is structural.
func (t *KDTree) nthElement(lo, hi, n int, ax int8) {
	for hi-lo > 1 {
		// Median-of-three pivot for robustness on sorted inputs.
		mid := (lo + hi) / 2
		if t.less(mid, lo, ax) {
			t.swap(mid, lo)
		}
		if t.less(hi-1, lo, ax) {
			t.swap(hi-1, lo)
		}
		if t.less(hi-1, mid, ax) {
			t.swap(hi-1, mid)
		}
		// Move the pivot to hi-1 and partition the rest against it.
		t.swap(mid, hi-1)
		pivot := t.coord(hi-1, ax)
		store := lo
		for i := lo; i < hi-1; i++ {
			if t.coord(i, ax) < pivot {
				t.swap(i, store)
				store++
			}
		}
		t.swap(store, hi-1)
		switch {
		case n == store:
			return
		case n < store:
			hi = store
		default:
			lo = store + 1
		}
	}
}

func (t *KDTree) coord(i int, ax int8) float64 {
	if ax == 0 {
		return t.pts[i].X
	}
	return t.pts[i].Y
}

func (t *KDTree) less(i, j int, ax int8) bool { return t.coord(i, ax) < t.coord(j, ax) }

func (t *KDTree) swap(i, j int) {
	t.pts[i], t.pts[j] = t.pts[j], t.pts[i]
	t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
}

// Nearest returns the original index of the point closest to q and its
// distance. It panics on an empty tree.
func (t *KDTree) Nearest(q Point) (int, float64) {
	if len(t.pts) == 0 {
		panic("geom: Nearest on empty KDTree")
	}
	best := -1
	bestD2 := 0.0
	t.nearest(0, len(t.pts), q, &best, &bestD2)
	return t.idx[best], sqrt(bestD2)
}

func (t *KDTree) nearest(lo, hi int, q Point, best *int, bestD2 *float64) {
	if hi-lo <= 0 {
		return
	}
	mid := (lo + hi) / 2
	d2 := t.pts[mid].Dist2(q)
	if *best == -1 || d2 < *bestD2 {
		*best = mid
		*bestD2 = d2
	}
	ax := t.axis[mid]
	var delta float64
	if ax == 0 {
		delta = q.X - t.pts[mid].X
	} else {
		delta = q.Y - t.pts[mid].Y
	}
	if delta < 0 {
		t.nearest(lo, mid, q, best, bestD2)
		if delta*delta < *bestD2 {
			t.nearest(mid+1, hi, q, best, bestD2)
		}
	} else {
		t.nearest(mid+1, hi, q, best, bestD2)
		if delta*delta < *bestD2 {
			t.nearest(lo, mid, q, best, bestD2)
		}
	}
}

// RangeSearch returns the original indices of all points within radius of
// q, in ascending index order.
func (t *KDTree) RangeSearch(q Point, radius float64) []int {
	if radius < 0 {
		return nil
	}
	var out []int
	r2 := radius * radius
	t.rangeSearch(0, len(t.pts), q, r2, &out)
	sort.Ints(out)
	return out
}

func (t *KDTree) rangeSearch(lo, hi int, q Point, r2 float64, out *[]int) {
	if hi-lo <= 0 {
		return
	}
	mid := (lo + hi) / 2
	if t.pts[mid].Dist2(q) <= r2 {
		*out = append(*out, t.idx[mid])
	}
	ax := t.axis[mid]
	var delta float64
	if ax == 0 {
		delta = q.X - t.pts[mid].X
	} else {
		delta = q.Y - t.pts[mid].Y
	}
	if delta < 0 {
		t.rangeSearch(lo, mid, q, r2, out)
		if delta*delta <= r2 {
			t.rangeSearch(mid+1, hi, q, r2, out)
		}
	} else {
		t.rangeSearch(mid+1, hi, q, r2, out)
		if delta*delta <= r2 {
			t.rangeSearch(lo, mid, q, r2, out)
		}
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
