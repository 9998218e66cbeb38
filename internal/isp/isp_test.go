package isp

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/traffic"
)

func testGeo(t *testing.T, cities int, seed int64) *traffic.Geography {
	t.Helper()
	g, err := traffic.GenerateGeography(traffic.GeographyConfig{
		NumCities: cities, Seed: seed, ZipfExponent: 1.0, MinSeparation: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// nodesOfKind returns the ids of g's nodes of kind k, ascending.
func nodesOfKind(g *graph.Graph, k graph.NodeKind) []int {
	var out []int
	for u := 0; u < g.NumNodes(); u++ {
		if g.Node(u).Kind == k {
			out = append(out, u)
		}
	}
	return out
}

func baseConfig(t *testing.T, seed int64) Config {
	return Config{
		Geography:             testGeo(t, 20, seed),
		NumPOPs:               6,
		Customers:             400,
		Seed:                  seed,
		PerfWeight:            50,
		MaxExtraBackboneLinks: 4,
		DemandMin:             1,
		DemandMax:             6,
	}
}

func TestBuildCostBased(t *testing.T) {
	d, err := BuildContext(context.Background(), baseConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.POPs) != 6 {
		t.Fatalf("POPs = %d", len(d.POPs))
	}
	if d.CustomersServed != 400 || d.CustomersOffered != 400 {
		t.Fatalf("cost-based must serve everyone: %d/%d", d.CustomersServed, d.CustomersOffered)
	}
	if !d.Graph.IsConnected() {
		t.Fatal("ISP graph must be connected")
	}
	if d.TotalCost() <= 0 {
		t.Fatal("total cost must be positive")
	}
	if d.AccessCost <= 0 || d.BackboneCost <= 0 {
		t.Fatal("both cost components must be positive")
	}
}

func TestBuildHierarchyKinds(t *testing.T) {
	d, err := BuildContext(context.Background(), baseConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	pops := nodesOfKind(d.Graph, graph.KindPOP)
	custs := nodesOfKind(d.Graph, graph.KindCustomer)
	if len(pops) != 6 {
		t.Fatalf("POP nodes = %d", len(pops))
	}
	if len(custs) != 400 {
		t.Fatalf("customer nodes = %d", len(custs))
	}
}

func TestBackboneMeshAndRedundancy(t *testing.T) {
	cfg := baseConfig(t, 3)
	d, err := BuildContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// MST over 6 POPs has 5 edges; augmentation may add up to 4.
	if len(d.BackboneEdges) < 5 {
		t.Fatalf("backbone edges = %d, want >= 5", len(d.BackboneEdges))
	}
	if len(d.BackboneEdges) > 9 {
		t.Fatalf("backbone edges = %d, exceeds budget", len(d.BackboneEdges))
	}
	// Higher perf weight must never yield fewer backbone links.
	cfg2 := cfg
	cfg2.PerfWeight = 5000
	d2, err := BuildContext(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.BackboneEdges) < len(d.BackboneEdges) {
		t.Fatalf("more perf weight gave fewer links: %d vs %d",
			len(d2.BackboneEdges), len(d.BackboneEdges))
	}
}

func TestNoPerfWeightMeansTreeBackbone(t *testing.T) {
	cfg := baseConfig(t, 4)
	cfg.PerfWeight = 0
	d, err := BuildContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.BackboneEdges) != len(d.POPs)-1 {
		t.Fatalf("pure-cost backbone should be a tree: %d edges for %d POPs",
			len(d.BackboneEdges), len(d.POPs))
	}
}

func TestProfitBasedServesSubset(t *testing.T) {
	cfg := baseConfig(t, 5)
	cfg.Formulation = ProfitBased
	cfg.PricePerDemand = 0.05 // low price: many customers unprofitable
	d, err := BuildContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.CustomersServed >= d.CustomersOffered {
		t.Fatalf("low price should exclude some customers: %d/%d",
			d.CustomersServed, d.CustomersOffered)
	}
	if d.CustomersServed == 0 {
		t.Fatal("some customers near POPs should still be profitable")
	}
}

func TestProfitIncreasingInPrice(t *testing.T) {
	cfg := baseConfig(t, 6)
	cfg.Formulation = ProfitBased
	served := make([]int, 0, 3)
	for _, price := range []float64{0.05, 0.3, 3.0} {
		c := cfg
		c.PricePerDemand = price
		d, err := BuildContext(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		served = append(served, d.CustomersServed)
	}
	if !(served[0] <= served[1] && served[1] <= served[2]) {
		t.Fatalf("served customers not monotone in price: %v", served)
	}
}

func TestProfitAccountedOnlyInProfitMode(t *testing.T) {
	d, err := BuildContext(context.Background(), baseConfig(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if d.Revenue != 0 || d.Profit != 0 {
		t.Fatal("cost-based design should not report revenue")
	}
}

func TestMaxPortsRespectedInMetros(t *testing.T) {
	cfg := baseConfig(t, 8)
	cfg.MaxPorts = 8
	d, err := BuildContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range nodesOfKind(d.Graph, graph.KindCustomer) {
		if d.Graph.Degree(u) > 8 {
			t.Fatalf("customer node %d exceeds port cap: %d", u, d.Graph.Degree(u))
		}
	}
}

// TestPortViolationsRecount replays each design's edges in insertion
// order and counts the access links added to a router already at the
// port cap; the count must equal Design.PortViolations. The config is
// the scenario isp model's at cities 25, pops 8, customers 2,000 and
// seed 1, where ports 1, 2 and 3 leave 8, 5 and 1 POPs over the cap
// and ports 0, 4 and 6 leave none.
func TestPortViolationsRecount(t *testing.T) {
	geo, err := traffic.GenerateGeography(traffic.GeographyConfig{
		NumCities: 25, Seed: 1, ZipfExponent: 1, MinSeparation: 0.03,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ ports, popsOver int }{
		{0, 0}, {1, 8}, {2, 5}, {3, 1}, {4, 0}, {6, 0},
	} {
		d, err := BuildContext(context.Background(), Config{
			Geography: geo, NumPOPs: 8, Customers: 2000, Seed: 1,
			PerfWeight: 50, MaxExtraBackboneLinks: 4, MaxPorts: tc.ports,
			DemandMin: 1, DemandMax: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := d.Graph
		backbone := map[int]bool{}
		for _, e := range d.BackboneEdges {
			backbone[e] = true
		}
		deg := make([]int, g.NumNodes())
		violations := 0
		for id, e := range g.Edges() {
			// An access link runs from the router a customer attached
			// to (U) to the new customer (V).
			if !backbone[id] && tc.ports > 0 && deg[e.U] >= tc.ports {
				violations++
			}
			deg[e.U]++
			deg[e.V]++
		}
		if violations != d.PortViolations {
			t.Fatalf("ports %d: replay counts %d links over the cap, PortViolations %d", tc.ports, violations, d.PortViolations)
		}
		popsOver := 0
		for _, u := range d.POPs {
			if tc.ports > 0 && g.Degree(u) > tc.ports {
				popsOver++
			}
		}
		if popsOver != tc.popsOver {
			t.Fatalf("ports %d: %d POPs over the cap, want %d", tc.ports, popsOver, tc.popsOver)
		}
	}
}

func TestKMedianPlacement(t *testing.T) {
	cfg := baseConfig(t, 9)
	cfg.Placement = KMedian
	d, err := BuildContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.POPs) != cfg.NumPOPs {
		t.Fatalf("k-median placed %d POPs", len(d.POPs))
	}
	seen := map[int]bool{}
	for _, ci := range d.POPCity {
		if seen[ci] {
			t.Fatal("duplicate POP city")
		}
		seen[ci] = true
	}
}

func TestTopCitiesGetPOPs(t *testing.T) {
	d, err := BuildContext(context.Background(), baseConfig(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	// TopCities placement: POP cities are exactly indices 0..5.
	for i, ci := range d.POPCity {
		if ci != i {
			t.Fatalf("POP %d placed at city %d, want %d", i, ci, i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := BuildContext(context.Background(), Config{}); err == nil {
		t.Fatal("empty config should error")
	}
	geo := testGeo(t, 5, 11)
	if _, err := BuildContext(context.Background(), Config{Geography: geo, NumPOPs: 0}); err == nil {
		t.Fatal("0 POPs should error")
	}
	if _, err := BuildContext(context.Background(), Config{Geography: geo, NumPOPs: 2, Customers: -1}); err == nil {
		t.Fatal("negative customers should error")
	}
	if _, err := BuildContext(context.Background(), Config{Geography: geo, NumPOPs: 2, Formulation: ProfitBased}); err == nil {
		t.Fatal("profit formulation without price should error")
	}
}

func TestNumPOPsClamped(t *testing.T) {
	geo := testGeo(t, 4, 12)
	d, err := BuildContext(context.Background(), Config{Geography: geo, NumPOPs: 10, Customers: 50, Seed: 1, DemandMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.POPs) != 4 {
		t.Fatalf("POPs = %d, want clamped to 4", len(d.POPs))
	}
}

func TestSinglePOP(t *testing.T) {
	geo := testGeo(t, 3, 13)
	d, err := BuildContext(context.Background(), Config{Geography: geo, NumPOPs: 1, Customers: 100, Seed: 2, DemandMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.BackboneEdges) != 0 {
		t.Fatal("single POP needs no backbone")
	}
	if !d.Graph.IsConnected() {
		t.Fatal("single-POP ISP must still be connected")
	}
}

func TestDeterministicBuild(t *testing.T) {
	a, err := BuildContext(context.Background(), baseConfig(t, 14))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildContext(context.Background(), baseConfig(t, 14))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCost() != b.TotalCost() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("Build not deterministic for fixed seed")
	}
}

func TestCustomerConcentrationFollowsPopulation(t *testing.T) {
	// §2.1: "most customers reside in the big cities". The biggest POP
	// city must serve more customers than the smallest POP city.
	d, err := BuildContext(context.Background(), baseConfig(t, 15))
	if err != nil {
		t.Fatal(err)
	}
	// Count customers per POP component: remove backbone edges and find
	// which POP each customer connects through. Simpler: BFS from each
	// POP in the access-only subgraph.
	counts := make([]int, len(d.POPs))
	// Build access-only graph: exclude backbone edge ids.
	backbone := map[int]bool{}
	for _, e := range d.BackboneEdges {
		backbone[e] = true
	}
	acc := graph.New(d.Graph.NumNodes())
	for i := 0; i < d.Graph.NumNodes(); i++ {
		acc.AddNode(*d.Graph.Node(i))
	}
	for i, e := range d.Graph.Edges() {
		if !backbone[i] {
			acc.AddEdge(e)
		}
	}
	c := acc.Freeze()
	ws := graph.GetWorkspace(c.NumNodes())
	defer ws.Release()
	for pi, pop := range d.POPs {
		c.BFS(ws, pop)
		for v, dd := range ws.Hop[:c.NumNodes()] {
			if dd > 0 && acc.Node(v).Kind == graph.KindCustomer {
				counts[pi]++
			}
		}
	}
	if counts[0] <= counts[len(counts)-1] {
		t.Fatalf("biggest city POP serves %d, smallest %d — expected concentration",
			counts[0], counts[len(counts)-1])
	}
}
