// Package geom provides the planar geometry used by the geographic
// topology models: points in the unit square (or any rectangle), distance
// kernels, a kd-tree for nearest-neighbour queries, and the attachment
// index (Index) the incremental designers search for each arrival's
// cheapest attachment.
package geom

import (
	"math"
	"math/rand"
)

// Point is a location in the plane. Coordinates are abstract "map units";
// the traffic model fixes a physical scale when it needs one.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared Euclidean distance, avoiding the sqrt when
// only comparisons are needed.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Rect is an axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// UnitSquare is the canonical region used by the paper-style models.
var UnitSquare = Rect{0, 0, 1, 1}

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Diagonal returns the length of the rectangle diagonal — the maximum
// distance between any two points in r.
func (r Rect) Diagonal() float64 {
	return math.Hypot(r.Width(), r.Height())
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Bounds returns the smallest rectangle containing p and every point of
// pts: the region an Index must cover for a designer that attaches pts
// to a network rooted at p.
func Bounds(p Point, pts []Point) Rect {
	r := Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
	for _, q := range pts {
		r = r.Union(Rect{MinX: q.X, MinY: q.Y, MaxX: q.X, MaxY: q.Y})
	}
	return r
}

// Union returns the smallest rectangle containing r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, s.MinX), MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX), MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// RandomPoint samples a point uniformly at random inside r.
func (r Rect) RandomPoint(rnd *rand.Rand) Point {
	return Point{
		X: r.MinX + rnd.Float64()*r.Width(),
		Y: r.MinY + rnd.Float64()*r.Height(),
	}
}

// RandomPoints samples n points uniformly at random inside r.
func (r Rect) RandomPoints(rnd *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = r.RandomPoint(rnd)
	}
	return pts
}

// GaussianCluster samples n points from an isotropic Gaussian centred at c
// with standard deviation sigma, clamped to r. It models a metro area's
// customer scatter around a city centre.
func (r Rect) GaussianCluster(rnd *rand.Rand, c Point, sigma float64, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		p := Point{
			X: c.X + rnd.NormFloat64()*sigma,
			Y: c.Y + rnd.NormFloat64()*sigma,
		}
		p.X = clamp(p.X, r.MinX, r.MaxX)
		p.Y = clamp(p.Y, r.MinY, r.MaxY)
		pts[i] = p
	}
	return pts
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
