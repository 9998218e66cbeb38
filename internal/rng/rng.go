// Package rng provides deterministic, seedable randomness and the
// distributions used throughout the topology generators.
//
// Every randomized algorithm in this repository takes an explicit seed so
// that experiments are exactly reproducible. Seeds are expanded with
// SplitMix64 before being handed to math/rand, which keeps nearby integer
// seeds (0, 1, 2, ...) from producing correlated streams.
package rng

import (
	"math"
	"math/rand"
)

// SplitMix64 advances the SplitMix64 state and returns the next value.
// It is used to whiten user-provided seeds and to derive independent
// sub-seeds from a master seed.
func SplitMix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a deterministic *rand.Rand for the given seed.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(SplitMix64(uint64(seed)))))
}

// Derive deterministically derives the i-th sub-seed from a master seed.
// Sub-seeds are independent enough for Monte Carlo replication: replica i
// of an experiment uses Derive(seed, i).
func Derive(seed int64, i int) int64 {
	return int64(SplitMix64(SplitMix64(uint64(seed)) + uint64(i)*0x9e3779b97f4a7c15))
}

// BoundedPareto samples a Pareto(xmin, alpha) truncated to [xmin, xmax]
// by inverse transform, so no rejection loop is needed.
func BoundedPareto(r *rand.Rand, xmin, xmax, alpha float64) float64 {
	if xmin <= 0 || xmax <= xmin || alpha <= 0 {
		panic("rng: BoundedPareto requires 0 < xmin < xmax and alpha > 0")
	}
	u := r.Float64()
	la := math.Pow(xmin, -alpha)
	ha := math.Pow(xmax, -alpha)
	return math.Pow(la-u*(la-ha), -1/alpha)
}

// Zipf holds precomputed state for sampling ranks 1..N with probability
// proportional to rank^(-s). Unlike rand.Zipf it supports s <= 1 and small
// N, which the city-population model needs.
type Zipf struct {
	cdf []float64 // cumulative, normalized
}

// NewZipf builds a Zipf sampler over ranks 1..n with exponent s >= 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf needs n >= 1")
	}
	if s < 0 {
		panic("rng: Zipf exponent must be non-negative")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Weight returns the normalized probability of rank k (1-based).
func (z *Zipf) Weight(k int) float64 {
	if k < 1 || k > len(z.cdf) {
		panic("rng: Zipf rank out of range")
	}
	if k == 1 {
		return z.cdf[0]
	}
	return z.cdf[k-1] - z.cdf[k-2]
}

// Sample draws a rank in [1, N].
func (z *Zipf) Sample(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// WeightedChoice picks an index in [0, len(weights)) with probability
// proportional to weights[i]. Negative weights panic; an all-zero weight
// vector yields a uniform draw.
func WeightedChoice(r *rand.Rand, weights []float64) int {
	if len(weights) == 0 {
		panic("rng: WeightedChoice on empty slice")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: WeightedChoice weight must be non-negative")
		}
		total += w
	}
	if total == 0 {
		return r.Intn(len(weights))
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes ints [0, n) uniformly at random and returns the slice.
func Shuffle(r *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
