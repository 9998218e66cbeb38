// Package traffic provides the economic substrate of the ISP models: a
// synthetic national geography of population centers, gravity-model
// traffic demand between them, and a simple revenue model.
//
// The paper's §2.2 proposes exactly this input: "A natural approach to
// traffic demand is based on population centers dispersed over a
// geographic region", with the economic realities of §2.1 ("most
// customers reside in the big cities") captured by a Zipf law over city
// sizes — the standard empirical regularity for city populations.
package traffic

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/rng"
)

// City is one population center.
type City struct {
	Name       string
	Loc        geom.Point
	Population float64 // in abstract households
}

// Geography is a set of cities in a region.
type Geography struct {
	Region geom.Rect
	Cities []City
	// Overlaps counts cities placed within MinSeparation of an existing
	// city because rejection sampling gave up (the requested separation
	// was infeasible or nearly so for the region). 0 means every
	// separation constraint was honored.
	Overlaps int
}

// GeographyConfig parameterizes synthetic geography generation.
type GeographyConfig struct {
	NumCities int
	Seed      int64
	Region    geom.Rect // zero value = unit square
	// ZipfExponent controls population skew across city ranks (1.0 is the
	// classic Zipf law for cities). 0 gives equal populations.
	ZipfExponent float64
	// TotalPopulation is distributed across cities; default 1e6.
	TotalPopulation float64
	// MinSeparation rejects city placements closer than this to an
	// existing city (0 disables).
	MinSeparation float64
}

// GenerateGeography draws a synthetic national geography.
func GenerateGeography(cfg GeographyConfig) (*Geography, error) {
	if cfg.NumCities < 1 {
		return nil, fmt.Errorf("traffic: need at least one city")
	}
	region := cfg.Region
	if region == (geom.Rect{}) {
		region = geom.UnitSquare
	}
	total := cfg.TotalPopulation
	if total <= 0 {
		total = 1e6
	}
	r := rng.New(cfg.Seed)
	z := rng.NewZipf(cfg.NumCities, cfg.ZipfExponent)

	tooClose := func(cities []City, p geom.Point) bool {
		for _, c := range cities {
			if c.Loc.Dist(p) < cfg.MinSeparation {
				return true
			}
		}
		return false
	}
	g := &Geography{Region: region}
	for i := 0; i < cfg.NumCities; i++ {
		var p geom.Point
		for attempt := 0; ; attempt++ {
			p = region.RandomPoint(r)
			if cfg.MinSeparation <= 0 || attempt > 200 {
				break
			}
			if !tooClose(g.Cities, p) {
				break
			}
		}
		// Rejection sampling gives up after 200 attempts and accepts an
		// unchecked point; count the violation instead of hiding it.
		if cfg.MinSeparation > 0 && tooClose(g.Cities, p) {
			g.Overlaps++
		}
		g.Cities = append(g.Cities, City{
			Name:       fmt.Sprintf("city-%02d", i),
			Loc:        p,
			Population: total * z.Weight(i+1),
		})
	}
	// Rank 1 (largest) first is convenient for POP placement; Zipf
	// weights already decrease with index, so cities are sorted.
	sort.SliceStable(g.Cities, func(a, b int) bool {
		return g.Cities[a].Population > g.Cities[b].Population
	})
	return g, nil
}

// TotalPopulation sums city populations.
func (g *Geography) TotalPopulation() float64 {
	s := 0.0
	for _, c := range g.Cities {
		s += c.Population
	}
	return s
}

// DemandMatrix is a symmetric city-to-city traffic demand matrix; entry
// [i][j] is offered traffic between cities i and j in demand units.
type DemandMatrix [][]float64

// Total returns the sum over unordered pairs (each pair counted once).
func (m DemandMatrix) Total() float64 {
	s := 0.0
	for i := range m {
		for j := i + 1; j < len(m[i]); j++ {
			s += m[i][j]
		}
	}
	return s
}

// GravityConfig parameterizes the gravity demand model.
type GravityConfig struct {
	// Scale sets overall traffic volume: demand(i,j) =
	// Scale * pop_i * pop_j / (popTotal^2 * max(dist, Epsilon)^Exponent).
	Scale float64
	// Exponent is the distance-decay power (1.0 default; 0 disables
	// distance decay).
	Exponent float64
	// Epsilon floors the distance so co-located cities don't blow up.
	Epsilon float64
}

// GravityDemand builds the gravity-model demand matrix for a geography.
func GravityDemand(g *Geography, cfg GravityConfig) DemandMatrix {
	n := len(g.Cities)
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1
	}
	exp := cfg.Exponent
	eps := cfg.Epsilon
	if eps <= 0 {
		eps = 0.01
	}
	popTotal := g.TotalPopulation()
	m := make(DemandMatrix, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	if popTotal <= 0 {
		// No population, no traffic (and no NaN fractions).
		return m
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := g.Cities[i].Loc.Dist(g.Cities[j].Loc)
			if d < eps {
				d = eps
			}
			v := scale * g.Cities[i].Population * g.Cities[j].Population /
				(popTotal * popTotal * math.Pow(d, exp))
			m[i][j] = v
			m[j][i] = v
		}
	}
	return m
}

// RevenueModel prices delivered traffic.
type RevenueModel struct {
	// PricePerUnit is revenue per delivered demand unit.
	PricePerUnit float64
}

// Revenue returns revenue for the given delivered demand volume.
func (rm RevenueModel) Revenue(delivered float64) float64 {
	return rm.PricePerUnit * delivered
}

// AllocateCustomers distributes total customers across cities in
// proportion to population (largest remainder method, deterministic).
// An all-zero-population geography has no proportions to honor and
// allocates zero customers everywhere.
func AllocateCustomers(g *Geography, total int) []int {
	n := len(g.Cities)
	out := make([]int, n)
	if total <= 0 || n == 0 {
		return out
	}
	pop := g.TotalPopulation()
	if pop <= 0 {
		// Dividing by zero population would make every fraction NaN and
		// the largest-remainder sort nondeterministic.
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	var rems []rem
	assigned := 0
	for i, c := range g.Cities {
		exact := float64(total) * c.Population / pop
		out[i] = int(exact)
		assigned += out[i]
		rems = append(rems, rem{i, exact - float64(out[i])})
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for k := 0; assigned < total; k++ {
		out[rems[k%len(rems)].idx]++
		assigned++
	}
	return out
}
