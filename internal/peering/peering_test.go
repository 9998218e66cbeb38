package peering

import (
	"context"
	"errors"
	"testing"

	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/traffic"
	"repro/internal/trafficreg"
)

func testGeo(t *testing.T, seed int64) *traffic.Geography {
	t.Helper()
	g, err := traffic.GenerateGeography(traffic.GeographyConfig{
		NumCities: 15, Seed: seed, ZipfExponent: 1.0, MinSeparation: 0.04,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func baseCfg(t *testing.T, seed int64) Config {
	return Config{
		Geography:        testGeo(t, seed),
		NumISPs:          6,
		Seed:             seed,
		POPsPerISP:       5,
		CustomersPerISP:  60,
		PeeringSetupCost: 1e-9,
	}
}

func TestAssembleBasics(t *testing.T) {
	inet, err := AssembleContext(context.Background(), baseCfg(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(inet.ISPs) != 6 {
		t.Fatalf("ISPs = %d", len(inet.ISPs))
	}
	if inet.AS.NumNodes() != 6 {
		t.Fatalf("AS nodes = %d", inet.AS.NumNodes())
	}
	if inet.Router.NumNodes() == 0 {
		t.Fatal("empty router graph")
	}
	// Router graph contains every ISP's nodes.
	total := 0
	for _, ispInst := range inet.ISPs {
		total += ispInst.Design.Graph.NumNodes()
	}
	if inet.Router.NumNodes() != total {
		t.Fatalf("router nodes = %d, want %d", inet.Router.NumNodes(), total)
	}
}

// TestAssembleDemandModels assembles the internet under registry demand
// models: the zero Selection reproduces explicit gravity defaults
// bit-for-bit, another model still assembles, and a bad selection fails
// as ErrBadParam.
func TestAssembleDemandModels(t *testing.T) {
	def, err := AssembleContext(context.Background(), baseCfg(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg(t, 9)
	cfg.Demand = trafficreg.Selection{Name: "gravity"}
	grav, err := AssembleContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(grav.Peerings) != len(def.Peerings) {
		t.Fatalf("explicit gravity peerings %d != default %d", len(grav.Peerings), len(def.Peerings))
	}
	for i := range def.Peerings {
		if def.Peerings[i] != grav.Peerings[i] {
			t.Fatalf("peering %d differs: %+v vs %+v", i, def.Peerings[i], grav.Peerings[i])
		}
	}
	cfg = baseCfg(t, 9)
	cfg.Demand = trafficreg.Selection{Name: "zipf-hotspot", Params: trafficreg.Params{"exponent": 2}}
	hot, err := AssembleContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot.ISPs) != 6 || hot.Router.NumNodes() == 0 {
		t.Fatalf("hotspot-demand assembly implausible: %d ISPs", len(hot.ISPs))
	}
	cfg = baseCfg(t, 9)
	cfg.Demand = trafficreg.Selection{Name: "nope"}
	if _, err := AssembleContext(context.Background(), cfg); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("unknown demand model gave %v, want ErrBadParam", err)
	}
}

func TestPeeringsAtSharedCitiesOnly(t *testing.T) {
	inet, err := AssembleContext(context.Background(), baseCfg(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range inet.Peerings {
		a := inet.ISPs[p.A].Design
		b := inet.ISPs[p.B].Design
		inA, inB := false, false
		for _, c := range a.POPCity {
			if c == p.CityA {
				inA = true
			}
		}
		for _, c := range b.POPCity {
			if c == p.CityA {
				inB = true
			}
		}
		if !inA || !inB {
			t.Fatalf("peering at city %d not shared by both ISPs", p.CityA)
		}
	}
}

func TestASEdgesMatchPeerings(t *testing.T) {
	inet, err := AssembleContext(context.Background(), baseCfg(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[[2]int]bool{}
	for _, p := range inet.Peerings {
		pairs[[2]int{p.A, p.B}] = true
	}
	if inet.AS.NumEdges() != len(pairs) {
		t.Fatalf("AS edges = %d, distinct peered pairs = %d", inet.AS.NumEdges(), len(pairs))
	}
}

func TestHighSetupCostSuppressesPeering(t *testing.T) {
	cfg := baseCfg(t, 4)
	cheap, err := AssembleContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PeeringSetupCost = 1e12
	pricey, err := AssembleContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pricey.Peerings) >= len(cheap.Peerings) && len(cheap.Peerings) > 0 {
		t.Fatalf("setup cost did not suppress peering: %d vs %d",
			len(pricey.Peerings), len(cheap.Peerings))
	}
}

func TestBigCitiesHostMorePeerings(t *testing.T) {
	// §2.1: "most national or global ISPs peer for interconnection in the
	// big cities". City 0 is the biggest; its peering count should be at
	// least that of the smallest city.
	inet, err := AssembleContext(context.Background(), baseCfg(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(inet.Peerings) == 0 {
		t.Skip("no peerings formed on this seed")
	}
	counts := map[int]int{}
	for _, p := range inet.Peerings {
		counts[p.CityA]++
	}
	nCities := len(inet.ISPs[0].Design.POPCity) // not meaningful; use geography
	_ = nCities
	big := counts[0]
	small := counts[14]
	if big < small {
		t.Fatalf("big city peerings %d < small city %d", big, small)
	}
}

func TestMaxPeeringsPerPair(t *testing.T) {
	cfg := baseCfg(t, 6)
	cfg.MaxPeeringsPerPair = 1
	inet, err := AssembleContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := map[[2]int]int{}
	for _, p := range inet.Peerings {
		count[[2]int{p.A, p.B}]++
		if count[[2]int{p.A, p.B}] > 1 {
			t.Fatal("pair peered more than MaxPeeringsPerPair")
		}
	}
}

func TestRouterGraphHasPeeringEdges(t *testing.T) {
	inet, err := AssembleContext(context.Background(), baseCfg(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	intra := 0
	for _, ispInst := range inet.ISPs {
		intra += ispInst.Design.Graph.NumEdges()
	}
	if inet.Router.NumEdges() != intra+len(inet.Peerings) {
		t.Fatalf("router edges = %d, want %d intra + %d peering",
			inet.Router.NumEdges(), intra, len(inet.Peerings))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := AssembleContext(context.Background(), Config{}); err == nil {
		t.Fatal("empty config should error")
	}
	geo := testGeo(t, 8)
	if _, err := AssembleContext(context.Background(), Config{Geography: geo, NumISPs: 0, POPsPerISP: 2}); err == nil {
		t.Fatal("0 ISPs should error")
	}
	if _, err := AssembleContext(context.Background(), Config{Geography: geo, NumISPs: 2, POPsPerISP: 0}); err == nil {
		t.Fatal("0 POPs should error")
	}
}

func TestRouterOffsetsIndexISPs(t *testing.T) {
	inet, err := AssembleContext(context.Background(), baseCfg(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range inet.ISPs {
		off := inet.RouterOffset[i]
		n0 := inet.Router.Node(off)
		if n0.Kind != graph.KindPOP {
			t.Fatalf("ISP %d offset node kind = %v, want pop (designs start with POPs)", i, n0.Kind)
		}
	}
}

func TestDeterministicAssembly(t *testing.T) {
	a, err := AssembleContext(context.Background(), baseCfg(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := AssembleContext(context.Background(), baseCfg(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Peerings) != len(b.Peerings) || a.Router.NumEdges() != b.Router.NumEdges() {
		t.Fatal("assembly not deterministic")
	}
}
