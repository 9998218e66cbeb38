package routing

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestMaxMinFairSingleBottleneckSplit(t *testing.T) {
	// Two flows share one capacity-6 edge: each gets 3.
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddNode(graph.Node{})
	}
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 6})
	g.AddEdge(graph.Edge{U: 1, V: 2, Weight: 1, Capacity: 100})
	res, err := MaxMinFairContext(context.Background(), g, nil, []Demand{
		{Src: 0, Dst: 1, Volume: 100},
		{Src: 0, Dst: 2, Volume: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Rate[0]-3) > 1e-9 || math.Abs(res.Rate[1]-3) > 1e-9 {
		t.Fatalf("rates = %v, want [3 3]", res.Rate)
	}
	if math.Abs(res.JainIndex-1) > 1e-9 {
		t.Fatalf("Jain index = %v, want 1 for equal rates", res.JainIndex)
	}
}

func TestMaxMinFairUnevenBottlenecks(t *testing.T) {
	// Flow A crosses a tight edge (cap 2); flow B rides a fat separate
	// path (cap 10). Max-min: A = 2, B = 10.
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{})
	}
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 2})
	g.AddEdge(graph.Edge{U: 2, V: 3, Weight: 1, Capacity: 10})
	res, err := MaxMinFairContext(context.Background(), g, nil, []Demand{
		{Src: 0, Dst: 1, Volume: 100},
		{Src: 2, Dst: 3, Volume: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Rate[0]-2) > 1e-9 || math.Abs(res.Rate[1]-10) > 1e-9 {
		t.Fatalf("rates = %v, want [2 10]", res.Rate)
	}
	if res.Throughput != 12 {
		t.Fatalf("throughput = %v, want 12", res.Throughput)
	}
}

func TestMaxMinFairWaterFilling(t *testing.T) {
	// Classic 3-flow example: flows A (0→2) and B (1→2) share edge
	// (1,2) of cap 6 with A also crossing (0,1) of cap 2.
	//   A: 0-1-2 (bottleneck 0-1 at 2)
	//   B: 1-2 gets the leftover 6-2 = 4.
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddNode(graph.Node{})
	}
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 2})
	g.AddEdge(graph.Edge{U: 1, V: 2, Weight: 1, Capacity: 6})
	res, err := MaxMinFairContext(context.Background(), g, nil, []Demand{
		{Src: 0, Dst: 2, Volume: 100}, // A
		{Src: 1, Dst: 2, Volume: 100}, // B
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Rate[0]-2) > 1e-9 {
		t.Fatalf("flow A rate = %v, want 2", res.Rate[0])
	}
	if math.Abs(res.Rate[1]-4) > 1e-9 {
		t.Fatalf("flow B rate = %v, want 4 (leftover after A freezes)", res.Rate[1])
	}
}

func TestMaxMinFairRespectsOfferedVolume(t *testing.T) {
	g := graph.New(2)
	g.AddNode(graph.Node{})
	g.AddNode(graph.Node{})
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 100})
	res, err := MaxMinFairContext(context.Background(), g, nil, []Demand{{Src: 0, Dst: 1, Volume: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate[0] != 5 {
		t.Fatalf("rate = %v, want capped at offered 5", res.Rate[0])
	}
}

func TestMaxMinFairUnroutableFlow(t *testing.T) {
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddNode(graph.Node{})
	}
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 4})
	res, err := MaxMinFairContext(context.Background(), g, nil, []Demand{
		{Src: 0, Dst: 1, Volume: 10},
		{Src: 0, Dst: 2, Volume: 10}, // unreachable
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate[1] != 0 {
		t.Fatalf("unroutable flow got rate %v", res.Rate[1])
	}
	if res.Rate[0] != 4 {
		t.Fatalf("routable flow rate = %v, want 4", res.Rate[0])
	}
}

func TestMaxMinFairNoCapacityExceeded(t *testing.T) {
	// Property: per-edge allocated load never exceeds capacity.
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		g.AddNode(graph.Node{})
	}
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 3})
	g.AddEdge(graph.Edge{U: 1, V: 2, Weight: 1, Capacity: 5})
	g.AddEdge(graph.Edge{U: 2, V: 3, Weight: 1, Capacity: 2})
	g.AddEdge(graph.Edge{U: 3, V: 4, Weight: 1, Capacity: 9})
	demands := []Demand{
		{Src: 0, Dst: 4, Volume: 100},
		{Src: 1, Dst: 3, Volume: 100},
		{Src: 0, Dst: 2, Volume: 100},
		{Src: 2, Dst: 4, Volume: 100},
	}
	res, err := MaxMinFairContext(context.Background(), g, nil, demands)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute loads along shortest paths (the path graph is unique).
	load := make([]float64, g.NumEdges())
	for i, d := range demands {
		lo, hi := d.Src, d.Dst
		if lo > hi {
			lo, hi = hi, lo
		}
		for e := lo; e < hi; e++ {
			load[e] += res.Rate[i]
		}
	}
	for e, l := range load {
		if l > g.Edge(e).Capacity+1e-9 {
			t.Fatalf("edge %d overloaded: %v > %v", e, l, g.Edge(e).Capacity)
		}
	}
	if res.BottleneckEdges == 0 {
		t.Fatal("no bottlenecks found on a saturated instance")
	}
}

func TestMaxMinFairValidation(t *testing.T) {
	g := graph.New(2)
	g.AddNode(graph.Node{})
	g.AddNode(graph.Node{})
	if _, err := MaxMinFairContext(context.Background(), g, nil, []Demand{{Src: 0, Dst: 0, Volume: 1}}); err == nil {
		t.Fatal("self demand should error")
	}
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 1})
	if _, err := MaxMinFairContext(context.Background(), g, nil, []Demand{{Src: 0, Dst: 1, Volume: math.NaN()}}); err == nil {
		t.Fatal("NaN volume should error (it would freeze at rate NaN)")
	}
}

// TestMaxMinFairVolumeFreesCapacity is the hand-computed case where the
// volume-aware allocator strictly beats the legacy post-hoc cap: two
// flows share a capacity-6 edge, but flow A only offers volume 1.
// Volume-aware filling freezes A at 1 and lets B rise to the leftover
// 5; the legacy allocator split 3/3 and then capped A to 1, wasting the
// 2 units A never consumed.
func TestMaxMinFairVolumeFreesCapacity(t *testing.T) {
	build := func() *graph.Graph {
		g := graph.New(3)
		for i := 0; i < 3; i++ {
			g.AddNode(graph.Node{})
		}
		g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 6})
		g.AddEdge(graph.Edge{U: 1, V: 2, Weight: 1, Capacity: 100})
		return g
	}
	demands := []Demand{
		{Src: 0, Dst: 1, Volume: 1},   // A: ceiling below its fair share
		{Src: 0, Dst: 2, Volume: 100}, // B: effectively elastic
	}
	res, err := MaxMinFairContext(context.Background(), build(), nil, demands)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Rate[0]-1) > 1e-9 || math.Abs(res.Rate[1]-5) > 1e-9 {
		t.Fatalf("rates = %v, want [1 5]", res.Rate)
	}
	if math.Abs(res.Throughput-6) > 1e-9 {
		t.Fatalf("throughput = %v, want 6 (the full bottleneck)", res.Throughput)
	}
	old, err := maxMinFairLegacy(build(), demands)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(old.Throughput-4) > 1e-9 {
		t.Fatalf("legacy throughput = %v, want 4 (3/3 split capped to 1/3)", old.Throughput)
	}
	if res.Throughput <= old.Throughput {
		t.Fatalf("volume-aware throughput %v not strictly above legacy %v", res.Throughput, old.Throughput)
	}
}

// TestMaxMinFairJainOverAllocatedRates pins the JainIndex semantics:
// the index is computed over the routable demands' final allocated
// rates (the volume-aware fair shares), so a flow frozen at an offered
// volume below the common fair share lowers it below 1.
func TestMaxMinFairJainOverAllocatedRates(t *testing.T) {
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddNode(graph.Node{})
	}
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 6})
	g.AddEdge(graph.Edge{U: 1, V: 2, Weight: 1, Capacity: 100})
	res, err := MaxMinFairContext(context.Background(), g, nil, []Demand{
		{Src: 0, Dst: 1, Volume: 1},
		{Src: 0, Dst: 2, Volume: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rates are [1 5]: Jain = (1+5)^2 / (2 * (1 + 25)) = 36/52.
	want := 36.0 / 52.0
	if math.Abs(res.JainIndex-want) > 1e-9 {
		t.Fatalf("Jain index = %v, want %v over allocated rates [1 5]", res.JainIndex, want)
	}
}

// TestMaxMinFairVolumeAwareParity proves the legacy post-hoc-capped
// allocation is a lower bound on the volume-aware one, flow by flow, on
// randomized demand sets over three topology models and two seeds each.
func TestMaxMinFairVolumeAwareParity(t *testing.T) {
	models := []struct {
		name string
		gen  func(seed int64) (*graph.Graph, error)
	}{
		{"ba", func(seed int64) (*graph.Graph, error) {
			return gen.BarabasiAlbertContext(context.Background(), 300, 2, seed)
		}},
		{"er-gnm", func(seed int64) (*graph.Graph, error) {
			return gen.ErdosRenyiGNMContext(context.Background(), 300, 700, seed)
		}},
		{"waxman", func(seed int64) (*graph.Graph, error) {
			return gen.WaxmanContext(context.Background(), 300, 0.15, 0.6, seed)
		}},
	}
	for _, m := range models {
		for _, seed := range []int64{1, 2} {
			g, err := m.gen(seed)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(rng.Derive(seed, 99))
			for i := range g.Edges() {
				g.Edge(i).Capacity = 1 + 9*r.Float64()
			}
			n := g.NumNodes()
			demands := make([]Demand, 0, 150)
			for len(demands) < 150 {
				s, d := r.Intn(n), r.Intn(n)
				if s == d {
					continue
				}
				demands = append(demands, Demand{Src: s, Dst: d, Volume: 0.1 + 4*r.Float64()})
			}
			vol, err := MaxMinFairContext(context.Background(), g, nil, demands)
			if err != nil {
				t.Fatal(err)
			}
			old, err := maxMinFairLegacy(g, demands)
			if err != nil {
				t.Fatal(err)
			}
			if vol.Throughput < old.Throughput-1e-9 {
				t.Errorf("%s seed %d: volume-aware throughput %v below legacy capped %v",
					m.name, seed, vol.Throughput, old.Throughput)
			}
			// No pointwise claim: redistribution is not monotone per flow
			// (capacity freed at one volume ceiling raises sharers, which
			// can consume third-party bottlenecks earlier). Each flow is
			// still bounded by its offered volume.
			for i := range demands {
				if vol.Rate[i] > demands[i].Volume+1e-9 {
					t.Errorf("%s seed %d: flow %d rate %v exceeds offered volume %v",
						m.name, seed, i, vol.Rate[i], demands[i].Volume)
				}
			}
		}
	}
}

// TestRouteAndAllocateMatchesSeparateCalls pins the one-pinning-pass
// combined evaluation to the two standalone entry points.
func TestRouteAndAllocateMatchesSeparateCalls(t *testing.T) {
	g, err := gen.BarabasiAlbertContext(context.Background(), 200, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	for i := range g.Edges() {
		g.Edge(i).Capacity = 1 + 4*r.Float64()
	}
	var demands []Demand
	for len(demands) < 80 {
		s, d := r.Intn(200), r.Intn(200)
		if s == d {
			continue
		}
		demands = append(demands, Demand{Src: s, Dst: d, Volume: 0.1 + 2*r.Float64()})
	}
	sp, mm, err := RouteAndAllocateContext(context.Background(), g, nil, demands)
	if err != nil {
		t.Fatal(err)
	}
	wantSP, err := RouteShortestPathsContext(context.Background(), g, nil, demands)
	if err != nil {
		t.Fatal(err)
	}
	wantMM, err := MaxMinFairContext(context.Background(), g, nil, demands)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Delivered != wantSP.Delivered || sp.MaxUtilization != wantSP.MaxUtilization ||
		sp.AvgHops != wantSP.AvgHops || sp.AvgPathWeight != wantSP.AvgPathWeight {
		t.Fatalf("combined shortest-path result %+v != standalone %+v", sp, wantSP)
	}
	if mm.Throughput != wantMM.Throughput || mm.JainIndex != wantMM.JainIndex {
		t.Fatalf("combined allocation %+v != standalone %+v", mm, wantMM)
	}
	for i := range demands {
		if mm.Rate[i] != wantMM.Rate[i] {
			t.Fatalf("flow %d rate %v != standalone %v", i, mm.Rate[i], wantMM.Rate[i])
		}
	}
}

// TestMaxMinFairNoCapacityExceededVolumes re-checks the capacity
// invariant when volumes bind: per-edge allocated load never exceeds
// capacity on a path graph where unique shortest paths are known.
func TestMaxMinFairNoCapacityExceededVolumes(t *testing.T) {
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		g.AddNode(graph.Node{})
	}
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 3})
	g.AddEdge(graph.Edge{U: 1, V: 2, Weight: 1, Capacity: 5})
	g.AddEdge(graph.Edge{U: 2, V: 3, Weight: 1, Capacity: 2})
	g.AddEdge(graph.Edge{U: 3, V: 4, Weight: 1, Capacity: 9})
	demands := []Demand{
		{Src: 0, Dst: 4, Volume: 0.5},
		{Src: 1, Dst: 3, Volume: 1.5},
		{Src: 0, Dst: 2, Volume: 4},
		{Src: 2, Dst: 4, Volume: 8},
	}
	res, err := MaxMinFairContext(context.Background(), g, nil, demands)
	if err != nil {
		t.Fatal(err)
	}
	load := make([]float64, g.NumEdges())
	for i, d := range demands {
		lo, hi := d.Src, d.Dst
		if lo > hi {
			lo, hi = hi, lo
		}
		for e := lo; e < hi; e++ {
			load[e] += res.Rate[i]
		}
	}
	for e, l := range load {
		if l > g.Edge(e).Capacity+1e-9 {
			t.Fatalf("edge %d overloaded: %v > %v", e, l, g.Edge(e).Capacity)
		}
	}
}

// --- MaxMinFairContext edge cases (old and new behavior) ----------------

func TestMaxMinFairZeroCapacityEdge(t *testing.T) {
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddNode(graph.Node{})
	}
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 0})
	g.AddEdge(graph.Edge{U: 1, V: 2, Weight: 1, Capacity: 10})
	res, err := MaxMinFairContext(context.Background(), g, nil, []Demand{
		{Src: 0, Dst: 2, Volume: 5}, // crosses the dead edge: rate 0
		{Src: 1, Dst: 2, Volume: 5}, // unaffected: full bottleneck after A freezes at 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate[0] != 0 {
		t.Fatalf("flow across zero-capacity edge got rate %v, want 0", res.Rate[0])
	}
	if math.Abs(res.Rate[1]-5) > 1e-9 {
		t.Fatalf("independent flow rate = %v, want its full volume 5", res.Rate[1])
	}
}

func TestMaxMinFairZeroVolumeDemand(t *testing.T) {
	g := graph.New(2)
	g.AddNode(graph.Node{})
	g.AddNode(graph.Node{})
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 10})
	res, err := MaxMinFairContext(context.Background(), g, nil, []Demand{
		{Src: 0, Dst: 1, Volume: 0},
		{Src: 0, Dst: 1, Volume: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate[0] != 0 {
		t.Fatalf("zero-volume demand got rate %v", res.Rate[0])
	}
	if math.Abs(res.Rate[1]-3) > 1e-9 || math.Abs(res.Throughput-3) > 1e-9 {
		t.Fatalf("rates = %v throughput = %v, want [0 3] and 3", res.Rate, res.Throughput)
	}
	// The zero-volume demand never routed, so Jain covers only the
	// single routable flow: exactly 1.
	if math.Abs(res.JainIndex-1) > 1e-9 {
		t.Fatalf("Jain = %v, want 1 over the single routable flow", res.JainIndex)
	}
}

func TestMaxMinFairAllUnroutable(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{})
	}
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 5})
	g.AddEdge(graph.Edge{U: 2, V: 3, Weight: 1, Capacity: 5})
	res, err := MaxMinFairContext(context.Background(), g, nil, []Demand{
		{Src: 0, Dst: 2, Volume: 1},
		{Src: 1, Dst: 3, Volume: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput != 0 || res.JainIndex != 0 || res.BottleneckEdges != 0 {
		t.Fatalf("all-unroutable result = %+v, want all-zero", res)
	}
	for i, r := range res.Rate {
		if r != 0 {
			t.Fatalf("unroutable flow %d got rate %v", i, r)
		}
	}
}

// TestMaxMinFairSharedEdgeWaterfillingExact asserts the exact
// water-filling levels on one saturated shared edge with heterogeneous
// volumes, computed by hand: capacity 12 split across offered volumes
// [2, 5, 100] freezes at levels 2 (volume), 5 (volume), then the last
// flow takes the remaining 12-2-5 = 5.
func TestMaxMinFairSharedEdgeWaterfillingExact(t *testing.T) {
	g := graph.New(2)
	g.AddNode(graph.Node{})
	g.AddNode(graph.Node{})
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 12})
	res, err := MaxMinFairContext(context.Background(), g, nil, []Demand{
		{Src: 0, Dst: 1, Volume: 2},
		{Src: 0, Dst: 1, Volume: 5},
		{Src: 0, Dst: 1, Volume: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 5, 5}
	for i, w := range want {
		if math.Abs(res.Rate[i]-w) > 1e-9 {
			t.Fatalf("rates = %v, want %v", res.Rate, want)
		}
	}
	if math.Abs(res.Throughput-12) > 1e-9 {
		t.Fatalf("throughput = %v, want the full capacity 12", res.Throughput)
	}
	if res.BottleneckEdges != 1 {
		t.Fatalf("BottleneckEdges = %d, want 1", res.BottleneckEdges)
	}
}
