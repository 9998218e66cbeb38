package gen

import (
	"context"
	"math"
	"testing"

	"repro/internal/stats"
)

func TestGNPEdgeCount(t *testing.T) {
	n, p := 200, 0.05
	g, err := ErdosRenyiGNPContext(context.Background(), n, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := p * float64(n*(n-1)/2)
	got := float64(g.NumEdges())
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("G(n,p) edges = %v, want ~%v", got, want)
	}
}

func TestGNPExtremes(t *testing.T) {
	g, err := ErdosRenyiGNPContext(context.Background(), 20, 0, 1)
	if err != nil || g.NumEdges() != 0 {
		t.Fatalf("p=0 should give empty graph (err=%v edges=%d)", err, g.NumEdges())
	}
	g, err = ErdosRenyiGNPContext(context.Background(), 20, 1, 1)
	if err != nil || g.NumEdges() != 190 {
		t.Fatalf("p=1 should give complete graph (err=%v edges=%d)", err, g.NumEdges())
	}
	if _, err := ErdosRenyiGNPContext(context.Background(), 10, 1.5, 1); err == nil {
		t.Fatal("p>1 should error")
	}
	if _, err := ErdosRenyiGNPContext(context.Background(), -1, 0.5, 1); err == nil {
		t.Fatal("n<0 should error")
	}
}

func TestGNMExactEdges(t *testing.T) {
	g, err := ErdosRenyiGNMContext(context.Background(), 50, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 100 {
		t.Fatalf("G(n,m) edges = %d, want 100", g.NumEdges())
	}
	// No duplicate edges.
	seen := map[[2]int]bool{}
	for _, e := range g.Edges() {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			t.Fatal("duplicate edge in G(n,m)")
		}
		seen[[2]int{u, v}] = true
	}
}

func TestGNMClampsToComplete(t *testing.T) {
	g, err := ErdosRenyiGNMContext(context.Background(), 5, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 10 {
		t.Fatalf("clamped G(n,m) edges = %d, want 10", g.NumEdges())
	}
}

func TestWaxmanDistanceBias(t *testing.T) {
	g, err := WaxmanContext(context.Background(), 300, 0.1, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("Waxman produced no edges")
	}
	// Mean edge length must be well below the mean random-pair distance
	// (~0.52 in the unit square) because of the exponential decay.
	total := 0.0
	for _, e := range g.Edges() {
		total += e.Weight
	}
	mean := total / float64(g.NumEdges())
	if mean > 0.4 {
		t.Fatalf("Waxman mean edge length %v shows no distance bias", mean)
	}
}

func TestWaxmanBadParams(t *testing.T) {
	for _, c := range [][3]float64{{-1, 0.1, 0.5}, {10, 0, 0.5}, {10, 0.1, 0}, {10, 0.1, 1.5}} {
		if _, err := WaxmanContext(context.Background(), int(c[0]), c[1], c[2], 1); err == nil {
			t.Fatalf("params %v should error", c)
		}
	}
}

func TestBAEdgeCountAndConnectivity(t *testing.T) {
	n, m := 500, 2
	g, err := BarabasiAlbertContext(context.Background(), n, m, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := m + (n-m-1)*m // star seed + m per arrival
	if g.NumEdges() != want {
		t.Fatalf("BA edges = %d, want %d", g.NumEdges(), want)
	}
	if !g.IsConnected() {
		t.Fatal("BA graph must be connected")
	}
}

func TestBAPowerLawTail(t *testing.T) {
	g, err := BarabasiAlbertContext(context.Background(), 3000, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	c := stats.ClassifyTail(g.Degrees())
	if c.Kind != stats.TailPowerLaw {
		t.Fatalf("BA degrees classified as %v, want power-law", c.Kind)
	}
	// BA exponent is 3 asymptotically; accept a broad band.
	if c.PowerLaw.Alpha < 2 || c.PowerLaw.Alpha > 4 {
		t.Fatalf("BA alpha = %v, want in [2,4]", c.PowerLaw.Alpha)
	}
}

func TestBAWithM1IsTree(t *testing.T) {
	g, err := BarabasiAlbertContext(context.Background(), 400, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTree() {
		t.Fatal("BA with m=1 must be a tree")
	}
}

func TestBABadParams(t *testing.T) {
	if _, err := BarabasiAlbertContext(context.Background(), 2, 2, 1); err == nil {
		t.Fatal("n <= m should error")
	}
	if _, err := BarabasiAlbertContext(context.Background(), 10, 0, 1); err == nil {
		t.Fatal("m=0 should error")
	}
}

func TestGLPGrowsToN(t *testing.T) {
	g, err := GLPContext(context.Background(), 400, 1, 0.4, 0.6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 400 {
		t.Fatalf("GLP nodes = %d, want 400", g.NumNodes())
	}
	if !g.IsConnected() {
		t.Fatal("GLP graph must be connected")
	}
}

func TestGLPHeavyTail(t *testing.T) {
	g, err := GLPContext(context.Background(), 2500, 1, 0.3, 0.7, 9)
	if err != nil {
		t.Fatal(err)
	}
	ds := stats.AnalyzeDegrees(g)
	// GLP's defining property: heavier hubs than BA at same m. At least
	// confirm a hub well above the mean.
	if float64(ds.MaxDegree) < 10*ds.MeanDegree {
		t.Fatalf("GLP max degree %d not heavy-tailed (mean %v)", ds.MaxDegree, ds.MeanDegree)
	}
}

func TestGLPBadParams(t *testing.T) {
	bad := []struct {
		n, m    int
		p, beta float64
	}{
		{10, 0, 0.5, 0.5},
		{1, 1, 0.5, 0.5},
		{10, 1, -0.1, 0.5},
		{10, 1, 1.0, 0.5},
		{10, 1, 0.5, 1.0},
	}
	for i, b := range bad {
		if _, err := GLPContext(context.Background(), b.n, b.m, b.p, b.beta, 1); err == nil {
			t.Fatalf("bad GLP config %d accepted", i)
		}
	}
}

func TestTransitStubStructure(t *testing.T) {
	cfg := TransitStubConfig{
		TransitDomains:  3,
		TransitSize:     4,
		StubsPerTransit: 2,
		StubSize:        5,
		EdgeProb:        0.3,
		Seed:            10,
	}
	g, err := TransitStubContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := 3*4 + 3*4*2*5
	if g.NumNodes() != wantNodes {
		t.Fatalf("transit-stub nodes = %d, want %d", g.NumNodes(), wantNodes)
	}
	if !g.IsConnected() {
		t.Fatal("transit-stub must be connected")
	}
}

func TestTransitStubNoStubs(t *testing.T) {
	g, err := TransitStubContext(context.Background(), TransitStubConfig{
		TransitDomains: 2, TransitSize: 3, StubsPerTransit: 0, StubSize: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 6 {
		t.Fatalf("nodes = %d, want 6", g.NumNodes())
	}
}

func TestTransitStubBadConfig(t *testing.T) {
	if _, err := TransitStubContext(context.Background(), TransitStubConfig{}); err == nil {
		t.Fatal("zero config should error")
	}
	if _, err := TransitStubContext(context.Background(), TransitStubConfig{TransitDomains: 1, TransitSize: 1, StubSize: 1, EdgeProb: 2}); err == nil {
		t.Fatal("EdgeProb > 1 should error")
	}
}

func TestRandomGeometricRadius(t *testing.T) {
	g, err := RandomGeometricContext(context.Background(), 200, 0.15, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if e.Weight > 0.15+1e-12 {
			t.Fatalf("RGG edge of length %v exceeds radius", e.Weight)
		}
	}
}

func TestRandomGeometricZeroRadius(t *testing.T) {
	g, err := RandomGeometricContext(context.Background(), 50, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Fatal("zero radius should give no edges")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, _ := BarabasiAlbertContext(context.Background(), 300, 2, 42)
	b, _ := BarabasiAlbertContext(context.Background(), 300, 2, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("BA not deterministic")
	}
	for i := 0; i < a.NumEdges(); i++ {
		if a.Edge(i).U != b.Edge(i).U || a.Edge(i).V != b.Edge(i).V {
			t.Fatal("BA edge sequence not deterministic")
		}
	}
}
