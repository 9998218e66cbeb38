package access

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/stats"
)

func testInstance(t *testing.T, n int, seed int64) *Instance {
	t.Helper()
	in, err := RandomInstance(InstanceConfig{
		N: n, Seed: seed, DemandMin: 1, DemandMax: 8, RootAtCenter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestDefaultCatalogValid(t *testing.T) {
	if err := DefaultCatalog().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogValidateRejectsBadOrdering(t *testing.T) {
	bad := []Catalog{
		{}, // empty
		{{Name: "a", Capacity: 0, Install: 1, Usage: 1}},
		{
			{Name: "a", Capacity: 4, Install: 1, Usage: 1},
			{Name: "b", Capacity: 1, Install: 2, Usage: 0.5}, // capacity drops
		},
		{
			{Name: "a", Capacity: 1, Install: 2, Usage: 1},
			{Name: "b", Capacity: 4, Install: 1, Usage: 0.5}, // install drops
		},
		{
			{Name: "a", Capacity: 1, Install: 1, Usage: 0.5},
			{Name: "b", Capacity: 4, Install: 2, Usage: 0.5}, // usage not strictly decreasing
		},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("catalog %d should be invalid", i)
		}
	}
}

func TestCatalogEconomiesOfScaleProperty(t *testing.T) {
	// Property: in a valid catalog, per-unit-of-capacity install cost
	// decreases with tier (that's what economies of scale means here).
	cat := DefaultCatalog()
	for i := 1; i < len(cat); i++ {
		prev := cat[i-1].Install / cat[i-1].Capacity
		cur := cat[i].Install / cat[i].Capacity
		if cur >= prev {
			t.Fatalf("tier %d has no install economy of scale: %v >= %v", i, cur, prev)
		}
	}
}

func TestBestCableConfigSmallFlowPrefersThin(t *testing.T) {
	cat := DefaultCatalog()
	k, n, _ := cat.BestCableConfig(0.5)
	if k != 0 || n != 1 {
		t.Fatalf("tiny flow got cable %d x%d, want thin x1", k, n)
	}
}

func TestBestCableConfigBigFlowPrefersThick(t *testing.T) {
	cat := DefaultCatalog()
	k, _, _ := cat.BestCableConfig(60)
	if k != len(cat)-1 {
		t.Fatalf("bulk flow got cable %d, want thickest %d", k, len(cat)-1)
	}
}

func TestBestCableConfigCapacityRespected(t *testing.T) {
	err := quick.Check(func(raw uint16) bool {
		f := float64(raw) / 100.0
		cat := DefaultCatalog()
		k, n, _ := cat.BestCableConfig(f)
		return float64(n)*cat[k].Capacity >= f
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBestCableConfigIsArgmin(t *testing.T) {
	cat := DefaultCatalog()
	for _, f := range []float64{0, 0.3, 1, 2.5, 7, 20, 63, 64, 200} {
		k, n, got := cat.BestCableConfig(f)
		for kk, tt := range cat {
			nn := 1
			if f > 0 {
				nn = int(math.Ceil(f / tt.Capacity))
				if nn < 1 {
					nn = 1
				}
			}
			c := float64(nn)*tt.Install + tt.Usage*f
			if c < got-1e-12 {
				t.Fatalf("flow %v: chose %d x%d cost %v but %d x%d costs %v", f, k, n, got, kk, nn, c)
			}
		}
	}
}

func TestBestCableConfigNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative flow should panic")
		}
	}()
	DefaultCatalog().BestCableConfig(-1)
}

func TestRandomInstanceShape(t *testing.T) {
	in := testInstance(t, 100, 1)
	if len(in.Customers) != 100 {
		t.Fatalf("customers = %d", len(in.Customers))
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range in.Customers {
		if c.Demand < 1 || c.Demand > 8 {
			t.Fatalf("demand %v out of [1,8]", c.Demand)
		}
	}
	if in.TotalDemand() < 100 {
		t.Fatal("total demand below minimum possible")
	}
}

func TestRandomInstanceClustered(t *testing.T) {
	in, err := RandomInstance(InstanceConfig{
		N: 300, Seed: 2, DemandMin: 1, Clusters: 5, ClusterSigma: 0.02, RootAtCenter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Customers) != 300 {
		t.Fatalf("clustered customers = %d", len(in.Customers))
	}
	// Clustered instances should have much lower mean nearest-neighbor
	// distance than uniform ones.
	mean := func(in *Instance) float64 {
		pts := customerPoints(in)
		total := 0.0
		for i, p := range pts {
			nn := math.Inf(1)
			for j, q := range pts {
				if j != i && p.Dist(q) < nn {
					nn = p.Dist(q)
				}
			}
			total += nn
		}
		return total / float64(len(pts))
	}
	uin := testInstance(t, 300, 2)
	if mean(in) >= mean(uin) {
		t.Fatalf("clustered NN distance %v not below uniform %v", mean(in), mean(uin))
	}
}

func TestRandomInstanceErrors(t *testing.T) {
	if _, err := RandomInstance(InstanceConfig{N: 0}); err == nil {
		t.Fatal("N=0 should error")
	}
}

func TestMMPIncrementalIsTree(t *testing.T) {
	in := testInstance(t, 400, 3)
	net, err := MMPIncremental(in, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !net.Graph.IsTree() {
		t.Fatal("MMP output is not a tree — violates the paper's §4.2 claim structure")
	}
	if net.Graph.NumNodes() != 401 {
		t.Fatalf("nodes = %d", net.Graph.NumNodes())
	}
	if net.TotalCost() <= 0 {
		t.Fatal("non-positive cost")
	}
}

func TestMMPFlowConservation(t *testing.T) {
	in := testInstance(t, 200, 4)
	net, err := MMPIncremental(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Sum of flows on root's incident edges must equal total demand.
	total := 0.0
	net.Graph.Neighbors(0, func(_, eid int) {
		total += net.Flow[eid]
	})
	if math.Abs(total-in.TotalDemand()) > 1e-6 {
		t.Fatalf("flow into root %v != total demand %v", total, in.TotalDemand())
	}
}

func TestMMPCapacityRespected(t *testing.T) {
	in := testInstance(t, 200, 5)
	net, err := MMPIncremental(in, 9)
	if err != nil {
		t.Fatal(err)
	}
	for eid := range net.Flow {
		cap := float64(net.CableCount[eid]) * in.Catalog[net.CableKind[eid]].Capacity
		if net.Flow[eid] > cap+1e-9 {
			t.Fatalf("edge %d: flow %v exceeds installed capacity %v", eid, net.Flow[eid], cap)
		}
	}
}

func TestMMPBeatsLowerBoundSanity(t *testing.T) {
	in := testInstance(t, 300, 6)
	net, err := MMPIncremental(in, 10)
	if err != nil {
		t.Fatal(err)
	}
	lb := LowerBound(in)
	if net.TotalCost() < lb {
		t.Fatalf("cost %v below lower bound %v — lower bound is broken", net.TotalCost(), lb)
	}
	// A constant-factor-style heuristic should land within a modest
	// multiple of LB on benign instances.
	if net.TotalCost() > 20*lb {
		t.Fatalf("cost %v more than 20x the lower bound %v", net.TotalCost(), lb)
	}
}

func TestSampleAndAugmentIsTree(t *testing.T) {
	in := testInstance(t, 400, 7)
	net, err := SampleAndAugment(in, 11, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !net.Graph.IsTree() {
		t.Fatal("sample-and-augment output is not a tree")
	}
	if net.TotalCost() < LowerBound(in) {
		t.Fatal("cost below lower bound")
	}
}

func TestSampleAndAugmentBadProb(t *testing.T) {
	in := testInstance(t, 10, 8)
	for _, p := range []float64{0, 1, -0.5, 2} {
		if _, err := SampleAndAugment(in, 1, p); err == nil {
			t.Fatalf("p=%v should error", p)
		}
	}
}

func TestSingleCableMSTTreeAndCost(t *testing.T) {
	in := testInstance(t, 300, 9)
	net, err := SingleCableMST(in)
	if err != nil {
		t.Fatal(err)
	}
	if !net.Graph.IsTree() {
		t.Fatal("MST baseline not a tree")
	}
	for eid := range net.CableKind {
		if net.CableKind[eid] != 0 {
			t.Fatal("single-cable baseline used a thick cable")
		}
	}
}

func TestDirectStarShape(t *testing.T) {
	in := testInstance(t, 150, 10)
	net, err := DirectStar(in)
	if err != nil {
		t.Fatal(err)
	}
	if net.Graph.Degree(0) != 150 {
		t.Fatalf("root degree = %d, want 150", net.Graph.Degree(0))
	}
	if !net.Graph.IsTree() {
		t.Fatal("star is a tree")
	}
}

func TestEconomiesOfScaleMakeSharingWin(t *testing.T) {
	// The central §4.1 economics: with economies of scale, aggregation
	// (MMP) must beat dedicated per-customer lines (DirectStar) on a
	// large instance.
	in := testInstance(t, 500, 11)
	mmp, err := MMPIncremental(in, 12)
	if err != nil {
		t.Fatal(err)
	}
	star, err := DirectStar(in)
	if err != nil {
		t.Fatal(err)
	}
	if mmp.TotalCost() >= star.TotalCost() {
		t.Fatalf("MMP %v did not beat DirectStar %v", mmp.TotalCost(), star.TotalCost())
	}
}

func TestGreedyConcentrator(t *testing.T) {
	in := testInstance(t, 200, 12)
	net, err := GreedyConcentrator(in, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	if !net.Graph.IsTree() {
		t.Fatal("concentrator solution not a tree")
	}
	// 1 root + 200 customers + 8 concentrators.
	if net.Graph.NumNodes() != 209 {
		t.Fatalf("nodes = %d, want 209", net.Graph.NumNodes())
	}
	if _, err := GreedyConcentrator(in, 0, 1); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestKMeansBasic(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 0.1, Y: 0}, {X: 1, Y: 1}, {X: 0.9, Y: 1}}
	centers := KMeans(pts, nil, 2, 1, 20)
	if len(centers) != 2 {
		t.Fatalf("centers = %d", len(centers))
	}
	// The two centers should separate the two clusters.
	d := centers[0].Dist(centers[1])
	if d < 0.5 {
		t.Fatalf("centers too close: %v", d)
	}
}

func TestKMeansKExceedsN(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	centers := KMeans(pts, nil, 10, 1, 5)
	if len(centers) != 2 {
		t.Fatalf("k>n should clamp, got %d centers", len(centers))
	}
	if KMeans(nil, nil, 3, 1, 5) != nil {
		t.Fatal("empty input should give nil")
	}
}

func TestAugmentTwoEdgeConnected(t *testing.T) {
	in := testInstance(t, 200, 13)
	net, err := MMPIncremental(in, 14)
	if err != nil {
		t.Fatal(err)
	}
	before := net.Graph.NumEdges()
	added := AugmentTwoEdgeConnected(in, net)
	if added <= 0 {
		t.Fatal("augmentation added no edges")
	}
	if net.Graph.NumEdges() != before+added {
		t.Fatal("edge accounting mismatch")
	}
	if !net.Graph.IsTwoEdgeConnected() {
		t.Fatal("augmented network still has bridges")
	}
	if net.Graph.IsTree() {
		t.Fatal("augmented network should no longer be a tree (footnote 7)")
	}
}

func TestAugmentTinyNetwork(t *testing.T) {
	in := &Instance{
		Root:      geom.Point{X: 0.5, Y: 0.5},
		Customers: []Customer{{Loc: geom.Point{X: 0.1, Y: 0.1}, Demand: 1}},
		Catalog:   DefaultCatalog(),
	}
	net, err := DirectStar(in)
	if err != nil {
		t.Fatal(err)
	}
	if added := AugmentTwoEdgeConnected(in, net); added != 0 {
		t.Fatalf("2-node network augmentation added %d edges, want 0", added)
	}
}

func TestMMPExponentialDegreeTail(t *testing.T) {
	// The §4.2 headline claim at test scale: MMP trees have
	// exponential, not power-law, degree tails.
	in := testInstance(t, 1500, 14)
	net, err := MMPIncremental(in, 15)
	if err != nil {
		t.Fatal(err)
	}
	c := stats.ClassifyTail(net.Graph.Degrees())
	if c.Kind == stats.TailPowerLaw {
		t.Fatalf("MMP degree tail classified power-law (llr=%v), contradicting §4.2", c.LogLikRatio)
	}
}

func TestLowerBoundPositiveAndBelowAll(t *testing.T) {
	in := testInstance(t, 250, 15)
	lb := LowerBound(in)
	if lb <= 0 {
		t.Fatal("lower bound must be positive")
	}
	nets := []*Network{}
	if n, err := MMPIncremental(in, 16); err == nil {
		nets = append(nets, n)
	}
	if n, err := SingleCableMST(in); err == nil {
		nets = append(nets, n)
	}
	if n, err := DirectStar(in); err == nil {
		nets = append(nets, n)
	}
	if n, err := SampleAndAugment(in, 17, 0.3); err == nil {
		nets = append(nets, n)
	}
	if len(nets) != 4 {
		t.Fatal("some algorithm failed")
	}
	for i, n := range nets {
		if n.TotalCost() < lb {
			t.Fatalf("algorithm %d cost %v below LB %v", i, n.TotalCost(), lb)
		}
	}
}

func TestValidateInstanceErrors(t *testing.T) {
	in := &Instance{Catalog: DefaultCatalog()}
	if err := in.Validate(); err == nil {
		t.Fatal("no customers should error")
	}
	in.Customers = []Customer{{Demand: -1}}
	if err := in.Validate(); err == nil {
		t.Fatal("negative demand should error")
	}
}

func TestMMPDeterministic(t *testing.T) {
	in := testInstance(t, 150, 16)
	a, err := MMPIncremental(in, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MMPIncremental(in, 99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.TotalCost()-b.TotalCost()) > 1e-12 {
		t.Fatal("MMP not deterministic for fixed seed")
	}
}
