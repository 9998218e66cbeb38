package peering

import (
	"context"
	"testing"
)

func skewedInternet(t *testing.T, seed int64, nISPs int) *Internet {
	t.Helper()
	inet, err := AssembleContext(context.Background(), Config{
		Geography:        testGeo(t, seed),
		NumISPs:          nISPs,
		Seed:             seed,
		POPsPerISP:       10,
		CustomersPerISP:  0,
		PeeringSetupCost: 1e-6,
		SizeSkew:         1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inet
}

func TestAssignTransitBasics(t *testing.T) {
	inet := skewedInternet(t, 31, 12)
	res, err := AssignTransit(inet, TransitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tier) != 12 {
		t.Fatalf("tiers = %d", len(res.Tier))
	}
	// Default tier-1 count: 12/4 = 3.
	tier1 := 0
	for _, tr := range res.Tier {
		if tr < 1 {
			t.Fatalf("tier %d < 1", tr)
		}
		if tr == 1 {
			tier1++
		}
	}
	if tier1 < 3 {
		t.Fatalf("tier-1 count = %d, want >= 3", tier1)
	}
	// Every non-tier-1 ISP has at least one provider link.
	hasProvider := map[int]bool{}
	for _, l := range res.Links {
		hasProvider[l.Customer] = true
	}
	for i, tr := range res.Tier {
		if tr > 1 && !hasProvider[i] {
			t.Fatalf("ISP %d at tier %d has no provider", i, tr)
		}
	}
}

func TestTransitFlowsDownhill(t *testing.T) {
	inet := skewedInternet(t, 32, 10)
	res, err := AssignTransit(inet, TransitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	size := func(i int) int { return len(inet.ISPs[i].Design.POPs) }
	for _, l := range res.Links {
		if size(l.Provider) < size(l.Customer) {
			t.Fatalf("provider %d (size %d) smaller than customer %d (size %d)",
				l.Provider, size(l.Provider), l.Customer, size(l.Customer))
		}
	}
}

func TestTransitASGraphConnectedAndKinds(t *testing.T) {
	inet := skewedInternet(t, 33, 12)
	res, err := AssignTransit(inet, TransitConfig{ProvidersPerCustomer: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ASAll.NumNodes() != 12 {
		t.Fatalf("AS nodes = %d", res.ASAll.NumNodes())
	}
	// With tier-1 clique-ish peering and everyone buying transit, the AS
	// graph should be connected.
	if !res.ASAll.IsConnected() {
		t.Fatal("AS graph with transit should be connected")
	}
	kinds := map[int]int{}
	for _, e := range res.ASAll.Edges() {
		kinds[e.Cable]++
	}
	if kinds[1] == 0 {
		t.Fatal("no transit edges recorded in the AS graph")
	}
}

func TestTransitSkewMakesHubs(t *testing.T) {
	// The §3.2 connection: skewed ISP sizes + transit economics make a
	// hub-dominated AS graph. Suppress peering entirely (prohibitive
	// setup cost) so the business hierarchy alone shapes degrees.
	inet, err := AssembleContext(context.Background(), Config{
		Geography:        testGeo(t, 34),
		NumISPs:          16,
		Seed:             34,
		POPsPerISP:       10,
		CustomersPerISP:  0,
		PeeringSetupCost: 1e12,
		SizeSkew:         1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := AssignTransit(inet, TransitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	deg := res.ASAll.Degrees()
	max, sum := 0, 0
	for _, d := range deg {
		sum += d
		if d > max {
			max = d
		}
	}
	mean := float64(sum) / float64(len(deg))
	if float64(max) < 2*mean {
		t.Fatalf("AS graph not hub-dominated: max %d vs mean %.1f", max, mean)
	}
}

func TestAssignTransitEmpty(t *testing.T) {
	if _, err := AssignTransit(&Internet{}, TransitConfig{}); err == nil {
		t.Fatal("empty internet should error")
	}
}

func TestAssignTransitDeterministic(t *testing.T) {
	inet := skewedInternet(t, 35, 10)
	a, err := AssignTransit(inet, TransitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AssignTransit(inet, TransitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Links) != len(b.Links) {
		t.Fatal("transit assignment not deterministic")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatal("transit link order not deterministic")
		}
	}
}

func TestSizeSkewProducesHeterogeneousISPs(t *testing.T) {
	inet := skewedInternet(t, 36, 10)
	big := len(inet.ISPs[0].Design.POPs)
	small := len(inet.ISPs[9].Design.POPs)
	if big <= small {
		t.Fatalf("size skew ineffective: first %d, last %d", big, small)
	}
	if small < 2 {
		t.Fatalf("minimum ISP size violated: %d", small)
	}
}
