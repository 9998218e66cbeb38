package hotgen

import (
	"context"
	"testing"
)

// The facade tests double as end-to-end integration tests across the
// whole library: every major subsystem is exercised through the public
// entry points exactly as the examples use them.

func TestFacadeFKPPipeline(t *testing.T) {
	g, err := FKP(FKPConfig{N: 400, Alpha: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 400 || !g.IsTree() {
		t.Fatal("facade FKP broken")
	}
	if c := Classify(g); c.String() == "" {
		t.Fatal("classification missing")
	}
	prof := ComputeProfile(g, 1)
	if prof.Nodes != 400 {
		t.Fatal("profile nodes mismatch")
	}
}

func TestFacadeAccessPipeline(t *testing.T) {
	in, err := RandomAccessInstance(AccessInstanceConfig{
		N: 200, Seed: 2, DemandMin: 1, DemandMax: 8, RootAtCenter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := MMPIncremental(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	lb := AccessLowerBound(in)
	if net.TotalCost() < lb {
		t.Fatal("cost below lower bound through facade")
	}
	star, err := DirectStar(in)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := SingleCableMST(in)
	if err != nil {
		t.Fatal(err)
	}
	if star.TotalCost() < lb || mst.TotalCost() < lb {
		t.Fatal("baseline below lower bound")
	}
	if added := AugmentTwoEdgeConnected(in, net); added == 0 {
		t.Fatal("augmentation added nothing")
	}
}

func TestFacadeISPAndInternet(t *testing.T) {
	geo, err := GenerateGeography(GeographyConfig{
		NumCities: 12, Seed: 4, ZipfExponent: 1, MinSeparation: 0.04,
	})
	if err != nil {
		t.Fatal(err)
	}
	des, err := BuildISP(ISPConfig{
		Geography: geo, NumPOPs: 4, Customers: 150, Seed: 5,
		PerfWeight: 40, MaxExtraBackboneLinks: 2, DemandMin: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !des.Graph.IsConnected() {
		t.Fatal("ISP not connected")
	}
	inet, err := AssembleInternet(InternetConfig{
		Geography: geo, NumISPs: 4, Seed: 6,
		POPsPerISP: 4, CustomersPerISP: 40, PeeringSetupCost: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if inet.AS.NumNodes() != 4 {
		t.Fatal("AS graph wrong size")
	}
}

func TestFacadeRoutingAndRobustness(t *testing.T) {
	g, err := GenBarabasiAlbert(300, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Edges() {
		g.Edge(i).Capacity = 100
	}
	res, err := RouteShortestPaths(g, []Demand{{Src: 0, Dst: 299, Volume: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 5 {
		t.Fatal("demand not delivered")
	}
	if _, err := RouteCapacitated(g, []Demand{{Src: 0, Dst: 10, Volume: 1}}); err != nil {
		t.Fatal(err)
	}
	curves, err := RunRobustnessSweep(context.Background(), g, nil, RobustnessSweepSpec{
		Attack: "degree", Fracs: []float64{0.1}, Trials: 1,
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if lcc := curves[0].Values[0]; lcc <= 0 || lcc > 1 {
		t.Fatalf("sweep out of range: %v", curves)
	}
}

func TestFacadeGenerators(t *testing.T) {
	if _, err := GenErdosRenyiGNP(100, 0.05, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GenErdosRenyiGNM(100, 200, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GenWaxman(100, 0.1, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GenGLP(100, 1, 0.3, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GenRandomGeometric(100, 0.15, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GenTransitStub(TransitStubConfig{
		TransitDomains: 2, TransitSize: 3, StubsPerTransit: 1, StubSize: 4, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	runners := Experiments()
	if len(runners) != 11 {
		t.Fatalf("got %d experiments, want 11", len(runners))
	}
	// Spot check one end to end at tiny scale.
	tbl, err := runners[0].Run(ExperimentOptions{Seed: 1, Scale: 0.05, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "E1" {
		t.Fatalf("first runner is %s, want E1", tbl.ID)
	}
}

func TestFacadeHOTConstraints(t *testing.T) {
	g, st, err := GrowHOT(HOTConfig{
		N:    200,
		Seed: 9,
		Terms: []ObjectiveTerm{
			DistanceTerm{Weight: 4},
			CentralityTerm{Weight: 1},
			LoadTerm{Weight: 0.1},
		},
		Constraints: []Constraint{MaxDegreeConstraint{Max: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() > 10 && st.ConstraintViolations == 0 {
		t.Fatal("degree cap violated without fallback accounting")
	}
}

func TestFacadeValidationAndAnonymization(t *testing.T) {
	a, err := GenBarabasiAlbert(200, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenErdosRenyiGNM(200, a.NumEdges(), 11)
	if err != nil {
		t.Fatal(err)
	}
	cmp := CompareTopologies(a, b, 1)
	if cmp.Distance <= 0 {
		t.Fatal("BA vs ER should differ")
	}
	if CompareTopologies(a, a, 1).Distance > 1e-9 {
		t.Fatal("self comparison should be ~0")
	}
	iv := ResilienceCI(a, 10, 2)
	if iv.Low > iv.High {
		t.Fatal("bad interval")
	}
	scrubbed := Anonymize(a, AnonymizeOptions{Seed: 3, PermuteIDs: true})
	if SummarizeTopology(scrubbed, 4).MaxDegree != SummarizeTopology(a, 4).MaxDegree {
		t.Fatal("anonymization changed structure")
	}
	if MeasureTopology(a, 5).MeanDegree <= 0 {
		t.Fatal("metric vector broken")
	}
}

func TestFacadeTransitAndRings(t *testing.T) {
	geo, err := GenerateGeography(GeographyConfig{NumCities: 12, Seed: 6, ZipfExponent: 1, MinSeparation: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	inet, err := AssembleInternet(InternetConfig{
		Geography: geo, NumISPs: 8, Seed: 7, POPsPerISP: 8,
		PeeringSetupCost: 1e-7, SizeSkew: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := AssignTransit(inet, TransitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Links) == 0 || tr.ASAll.NumNodes() != 8 {
		t.Fatalf("transit result malformed: %d links", len(tr.Links))
	}
	in, err := RandomAccessInstance(AccessInstanceConfig{N: 60, Seed: 8, DemandMin: 1, RootAtCenter: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CompareRingVsTree(in, 9, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ring2EdgeConn {
		t.Fatal("ring should be 2-edge-connected")
	}
	arr := ArrivalPoints(geo, 30, 0.02, 10)
	if len(arr) != 30 {
		t.Fatal("arrival points wrong count")
	}
}

func TestFacadeTrafficModel(t *testing.T) {
	geo, err := GenerateGeography(GeographyConfig{NumCities: 8, Seed: 10, ZipfExponent: 1})
	if err != nil {
		t.Fatal(err)
	}
	dm := GravityDemand(geo, GravityConfig{Scale: 10, Exponent: 1})
	if dm.Total() <= 0 {
		t.Fatal("no demand generated")
	}
	if ClassifyTail([]int{1, 1, 2, 2, 3}).Kind.String() == "" {
		t.Fatal("tail classification broken")
	}
}

// TestFacadeTrafficRegistry drives the demand-model registry through
// the facade: enumeration, registry generation, graph demands, the
// scenario traffic stage, and a traffic-capable metric evaluation.
func TestFacadeTrafficRegistry(t *testing.T) {
	names := DemandModels()
	if len(names) < 5 {
		t.Fatalf("DemandModels() = %v", names)
	}
	if _, err := LookupDemandModel(""); err != nil {
		t.Fatalf("empty name (gravity alias) failed: %v", err)
	}
	geo, err := GenerateGeography(GeographyConfig{NumCities: 10, Seed: 3, ZipfExponent: 1})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := GenerateDemandMatrix(context.Background(), geo, TrafficSelection{Name: "zipf-hotspot"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dm.Total() <= 0 {
		t.Fatal("registry model generated no demand")
	}
	g, err := GenerateByName(context.Background(), "ba", GenParams{"n": 80, "m": 2})
	if err != nil {
		t.Fatal(err)
	}
	demands, err := GraphTrafficDemands(context.Background(), g, TrafficSelection{}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(demands) == 0 {
		t.Fatal("no graph demands")
	}
	res, err := NewEngine(nil).Run(context.Background(), Scenario{
		Generate: GenerateSpec{Model: "ba", Params: GenParams{"n": 80, "m": 2}},
		Traffic:  &TrafficSpec{Model: "bimodal", Sites: 10},
	}, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ts := res.Reps[0].Traffic; ts == nil || ts.Throughput <= 0 {
		t.Fatalf("traffic stage summary implausible: %+v", res.Reps[0].Traffic)
	}
}

func TestFacadeConnectivityTimeline(t *testing.T) {
	g, err := GenBarabasiAlbert(200, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Freeze()
	events := []TimelineEvent{
		{Op: TimelineFailNode, ID: 5},
		{Op: TimelineFailEdge, ID: 9},
		{Op: TimelineRepairNode, ID: 5},
		{Op: TimelineRepairEdge, ID: 9},
	}
	mode, err := ParseTimelineMode("epoch")
	if err != nil {
		t.Fatal(err)
	}
	curves, err := RunConnectivityTimeline(context.Background(), c, events, nil, mode, 1)
	if err != nil {
		t.Fatal(err)
	}
	vals := curves[0].Values
	if len(vals) != len(events)+1 {
		t.Fatalf("%d rows, want %d", len(vals), len(events)+1)
	}
	if vals[0] != 1 || vals[len(vals)-1] != 1 {
		t.Fatalf("intact/restored rows %v, want 1", vals)
	}
	sc := Scenario{
		Generate: GenerateSpec{Model: "ba", Params: GenParams{"n": 60, "m": 2}},
		Timeline: &ScenarioTimelineSpec{Events: []ScenarioTimelineEvent{
			{Event: "fail-node", Node: &events[0].ID},
			{Event: "repair", Node: &events[0].ID},
		}},
		Reps: 1,
	}
	res, err := NewEngine(nil).Run(context.Background(), sc, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pts := res.Reps[0].Timeline; len(pts) != 2 || pts[1].Metrics["lcc"] != 1 {
		t.Fatalf("scenario timeline points: %+v", res.Reps[0].Timeline)
	}
}
