package traffic

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func testGeo(t *testing.T, n int, seed int64) *Geography {
	t.Helper()
	g, err := GenerateGeography(GeographyConfig{
		NumCities: n, Seed: seed, ZipfExponent: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateGeographyBasics(t *testing.T) {
	g := testGeo(t, 20, 1)
	if len(g.Cities) != 20 {
		t.Fatalf("cities = %d", len(g.Cities))
	}
	if math.Abs(g.TotalPopulation()-1e6) > 1 {
		t.Fatalf("total population = %v, want 1e6", g.TotalPopulation())
	}
	for _, c := range g.Cities {
		if r := g.Region; c.Loc.X < r.MinX || c.Loc.X > r.MaxX || c.Loc.Y < r.MinY || c.Loc.Y > r.MaxY {
			t.Fatalf("city %s outside region", c.Name)
		}
		if c.Population <= 0 {
			t.Fatalf("city %s has non-positive population", c.Name)
		}
	}
}

func TestGeographySortedByPopulation(t *testing.T) {
	g := testGeo(t, 15, 2)
	for i := 1; i < len(g.Cities); i++ {
		if g.Cities[i].Population > g.Cities[i-1].Population {
			t.Fatal("cities not sorted by population")
		}
	}
}

func TestGeographyZipfSkew(t *testing.T) {
	g := testGeo(t, 30, 3)
	// With exponent 1, largest city / median city should be large.
	if g.Cities[0].Population < 5*g.Cities[15].Population {
		t.Fatalf("Zipf skew too weak: %v vs %v", g.Cities[0].Population, g.Cities[15].Population)
	}
}

func TestGeographyEqualWhenExponentZero(t *testing.T) {
	g, err := GenerateGeography(GeographyConfig{NumCities: 10, Seed: 4, ZipfExponent: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.Cities {
		if math.Abs(c.Population-1e5) > 1e-6 {
			t.Fatalf("exponent 0 should equalize: %v", c.Population)
		}
	}
}

func TestGeographyMinSeparation(t *testing.T) {
	g, err := GenerateGeography(GeographyConfig{
		NumCities: 15, Seed: 5, MinSeparation: 0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Cities {
		for j := i + 1; j < len(g.Cities); j++ {
			if d := g.Cities[i].Loc.Dist(g.Cities[j].Loc); d < 0.08 {
				// Rejection gives up after 200 attempts, so allow rare
				// close pairs only if region is crowded; with 15 cities
				// at 0.08 it should always succeed.
				t.Fatalf("cities %d,%d separated by %v < 0.08", i, j, d)
			}
		}
	}
}

func TestGenerateGeographyErrors(t *testing.T) {
	if _, err := GenerateGeography(GeographyConfig{NumCities: 0}); err == nil {
		t.Fatal("0 cities should error")
	}
}

// TestGeographyOverlapsCounted pins the infeasible-separation behavior:
// many cities with a separation larger than the region can hold must
// still produce the requested city count, but the violations are
// surfaced in Overlaps rather than silently accepted.
func TestGeographyOverlapsCounted(t *testing.T) {
	g, err := GenerateGeography(GeographyConfig{
		NumCities: 40, Seed: 11, MinSeparation: 0.9, // at most a few 0.9-separated points fit the unit square
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cities) != 40 {
		t.Fatalf("cities = %d, want 40 even when separation is infeasible", len(g.Cities))
	}
	if g.Overlaps == 0 {
		t.Fatal("infeasible MinSeparation placed overlapping cities without counting them")
	}
	// Feasible instances must report a clean placement.
	ok, err := GenerateGeography(GeographyConfig{NumCities: 15, Seed: 5, MinSeparation: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if ok.Overlaps != 0 {
		t.Fatalf("feasible placement reported %d overlaps", ok.Overlaps)
	}
}

func TestGravityDemandSymmetricPositive(t *testing.T) {
	g := testGeo(t, 12, 6)
	m := GravityDemand(g, GravityConfig{Scale: 100, Exponent: 1})
	for i := range m {
		if m[i][i] != 0 {
			t.Fatal("self-demand must be zero")
		}
		for j := range m[i] {
			if m[i][j] != m[j][i] {
				t.Fatal("demand matrix must be symmetric")
			}
			if i != j && m[i][j] <= 0 {
				t.Fatal("demand must be positive between distinct cities")
			}
		}
	}
	if m.Total() <= 0 {
		t.Fatal("total demand must be positive")
	}
}

func TestGravityPopulationEffect(t *testing.T) {
	g := &Geography{
		Region: geom.UnitSquare,
		Cities: []City{
			{Name: "big", Loc: geom.Point{X: 0.2, Y: 0.5}, Population: 1000},
			{Name: "small", Loc: geom.Point{X: 0.8, Y: 0.5}, Population: 10},
			{Name: "mid", Loc: geom.Point{X: 0.5, Y: 0.1}, Population: 100},
		},
	}
	m := GravityDemand(g, GravityConfig{Scale: 1, Exponent: 0})
	// With no distance decay, demand ratios track population products.
	if m[0][2] <= m[1][2] {
		t.Fatal("bigger city pair should have bigger demand")
	}
}

func TestGravityDistanceDecay(t *testing.T) {
	g := &Geography{
		Region: geom.UnitSquare,
		Cities: []City{
			{Name: "a", Loc: geom.Point{X: 0.1, Y: 0.5}, Population: 100},
			{Name: "near", Loc: geom.Point{X: 0.2, Y: 0.5}, Population: 100},
			{Name: "far", Loc: geom.Point{X: 0.9, Y: 0.5}, Population: 100},
		},
	}
	m := GravityDemand(g, GravityConfig{Scale: 1, Exponent: 1})
	if m[0][1] <= m[0][2] {
		t.Fatal("nearer pair should have larger demand under decay")
	}
}

func TestGravityEpsilonFloorsDistance(t *testing.T) {
	g := &Geography{
		Region: geom.UnitSquare,
		Cities: []City{
			{Name: "a", Loc: geom.Point{X: 0.5, Y: 0.5}, Population: 100},
			{Name: "b", Loc: geom.Point{X: 0.5, Y: 0.5}, Population: 100},
		},
	}
	m := GravityDemand(g, GravityConfig{Scale: 1, Exponent: 2, Epsilon: 0.05})
	if math.IsInf(m[0][1], 1) || math.IsNaN(m[0][1]) {
		t.Fatal("epsilon must prevent blowup at zero distance")
	}
}

func TestAllocateCustomersSumsToTotal(t *testing.T) {
	g := testGeo(t, 9, 7)
	alloc := AllocateCustomers(g, 1000)
	sum := 0
	for _, a := range alloc {
		sum += a
	}
	if sum != 1000 {
		t.Fatalf("allocation sums to %d, want 1000", sum)
	}
	// Biggest city gets the most.
	for i := 1; i < len(alloc); i++ {
		if alloc[i] > alloc[0] {
			t.Fatal("allocation should track population order")
		}
	}
}

func TestAllocateCustomersZero(t *testing.T) {
	g := testGeo(t, 5, 8)
	alloc := AllocateCustomers(g, 0)
	for _, a := range alloc {
		if a != 0 {
			t.Fatal("zero total should allocate nothing")
		}
	}
}

// TestAllocateCustomersZeroPopulation is the NaN regression: an
// all-zero-population geography used to divide by zero, making every
// largest-remainder fraction NaN and the allocation order dependent on
// the sort's behavior under NaN. It must deterministically allocate
// nothing.
func TestAllocateCustomersZeroPopulation(t *testing.T) {
	g := &Geography{Region: geom.UnitSquare}
	for i := 0; i < 6; i++ {
		g.Cities = append(g.Cities, City{Name: "ghost", Loc: geom.Point{X: 0.1 * float64(i), Y: 0.5}})
	}
	for trial := 0; trial < 3; trial++ {
		alloc := AllocateCustomers(g, 100)
		for i, a := range alloc {
			if a != 0 {
				t.Fatalf("zero-population city %d allocated %d customers", i, a)
			}
		}
	}
}

// TestGravityDemandZeroPopulation covers the same guard in the gravity
// model: no population means no traffic, not NaN entries.
func TestGravityDemandZeroPopulation(t *testing.T) {
	g := &Geography{Region: geom.UnitSquare, Cities: []City{
		{Loc: geom.Point{X: 0.2, Y: 0.2}}, {Loc: geom.Point{X: 0.8, Y: 0.8}},
	}}
	m := GravityDemand(g, GravityConfig{Scale: 1, Exponent: 1})
	for i := range m {
		for j := range m[i] {
			if m[i][j] != 0 {
				t.Fatalf("demand[%d][%d] = %v, want 0 for a zero-population geography", i, j, m[i][j])
			}
		}
	}
}
