package isp

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/trafficreg"
)

// writeDesign hashes every output bit of a design: node kinds,
// coordinates and capacities, the edge list in insertion order, the POP
// and backbone lists, and the cost and customer accounting.
func writeDesign(h hash.Hash, d *Design) {
	w := func(vs ...uint64) { _ = binary.Write(h, binary.LittleEndian, vs) } // a hash's Write never fails
	bits := math.Float64bits
	g := d.Graph
	for u := 0; u < g.NumNodes(); u++ {
		n := g.Node(u)
		w(uint64(n.Kind), bits(n.X), bits(n.Y), bits(n.Capacity))
	}
	for _, e := range g.Edges() {
		w(uint64(e.U), uint64(e.V), bits(e.Weight), uint64(int64(e.Cable)), bits(e.Capacity))
	}
	fmt.Fprint(h, d.POPs, d.POPCity, d.BackboneEdges)
	w(bits(d.AccessCost), bits(d.BackboneCost), uint64(d.CustomersOffered), uint64(d.CustomersServed),
		bits(d.DemandOffered), bits(d.DemandServed), bits(d.Revenue), bits(d.Profit), uint64(d.PortViolations))
}

func designDigest(d *Design) string {
	h := sha256.New()
	writeDesign(h, d)
	return hex.EncodeToString(h.Sum(nil))
}

// TestMetroPortCapDigest pins metro designs at binding port caps to the
// digest the metro loop gave before routers at the cap left the
// attachment search: ports 2, 3 and 8 at seeds 1–5, cost- and
// profit-based, on the config of TestPortViolationsRecount, where ports
// 2 and 3 leave POPs over the cap.
func TestMetroPortCapDigest(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= 5; seed++ {
		geo, err := traffic.GenerateGeography(traffic.GeographyConfig{
			NumCities: 25, Seed: seed, ZipfExponent: 1, MinSeparation: 0.03,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, ports := range []int{2, 3, 8} {
			for _, form := range []Formulation{CostBased, ProfitBased} {
				d, err := BuildContext(context.Background(), Config{
					Geography: geo, NumPOPs: 8, Customers: 2000, Seed: seed,
					PerfWeight: 50, MaxExtraBackboneLinks: 4, MaxPorts: ports,
					DemandMin: 1, DemandMax: 8, Formulation: form, PricePerDemand: 0.5,
				})
				if err != nil {
					t.Fatal(err)
				}
				writeDesign(h, d)
			}
		}
	}
	const want = "71b2e35336e79db335898872fc5cde756a8c2d37c9218f87aedaf165c3aa1cb6"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("port-capped designs digest %s, want %s", got, want)
	}
}

// legacyBackbone is buildBackbone as it stood when each candidate link
// was priced by cloning the graph and routing every demand on the clone,
// kept as the oracle. It adds one thing: pathLabels built from the same
// demands and links, whose price for the backbone and for every
// candidate of every round must equal the routed one bit for bit.
func legacyBackbone(ctx context.Context, t *testing.T, c *Config, des *Design) error {
	g := des.Graph
	k := len(des.POPs)
	if k == 1 {
		return nil
	}
	xs := make([]float64, k)
	ys := make([]float64, k)
	for i, id := range des.POPs {
		xs[i] = g.Node(id).X
		ys[i] = g.Node(id).Y
	}
	addBackbone := func(i, j int) int {
		d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
		eid := g.AddEdge(graph.Edge{
			U: des.POPs[i], V: des.POPs[j], Weight: d,
			Capacity: c.Catalog[len(c.Catalog)-1].Capacity,
			Cable:    len(c.Catalog) - 1,
		})
		des.BackboneEdges = append(des.BackboneEdges, eid)
		des.BackboneCost += c.BackboneCostPerLength * d
		return eid
	}
	inTree := map[[2]int]bool{}
	mst := graph.EuclideanMST(xs, ys)
	for _, pr := range mst {
		addBackbone(pr[0], pr[1])
		a, b := pr[0], pr[1]
		if a > b {
			a, b = b, a
		}
		inTree[[2]int{a, b}] = true
	}
	if c.MaxExtraBackboneLinks <= 0 || c.PerfWeight <= 0 {
		return nil
	}
	dm, err := trafficreg.GenerateDemand(ctx, c.Geography, c.Demand, c.Seed)
	if err != nil {
		return fmt.Errorf("isp: backbone demand: %w", err)
	}
	var demands []routing.Demand
	var popDemands []popDemand
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			v := dm[des.POPCity[i]][des.POPCity[j]]
			if v > 0 {
				demands = append(demands, routing.Demand{Src: des.POPs[i], Dst: des.POPs[j], Volume: v})
				popDemands = append(popDemands, popDemand{src: i, dst: j, vol: v})
			}
		}
	}
	if len(demands) == 0 {
		return nil
	}
	labels := newPathLabels(k, popDemands)
	for l, pr := range mst {
		labels.add(pr[0], pr[1], g.Edge(des.BackboneEdges[l]).Weight)
	}
	checkPrice := func(what string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: labels price %v (%#x), routing %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	avgPath := func() (float64, error) {
		res, err := routing.RouteShortestPathsContext(ctx, g, nil, demands)
		if err != nil {
			return 0, err
		}
		return res.AvgPathWeight, nil
	}
	cur, err := avgPath()
	if err != nil {
		return err
	}
	checkPrice("backbone", labels.avgPath(-1, -1, 0), cur)
	for added := 0; added < c.MaxExtraBackboneLinks; added++ {
		bestI, bestJ, bestGain := -1, -1, 0.0
		var bestNew float64
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if inTree[[2]int{i, j}] {
					continue
				}
				d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
				clone := g.Clone()
				clone.AddEdge(graph.Edge{U: des.POPs[i], V: des.POPs[j], Weight: d})
				res, err := routing.RouteShortestPathsContext(ctx, clone, nil, demands)
				if err != nil {
					return err
				}
				checkPrice(fmt.Sprintf("round %d link %d-%d", added, i, j), labels.avgPath(i, j, d), res.AvgPathWeight)
				gain := c.PerfWeight*(cur-res.AvgPathWeight) - c.BackboneCostPerLength*d
				if gain > bestGain {
					bestI, bestJ, bestGain = i, j, gain
					bestNew = res.AvgPathWeight
				}
			}
		}
		if bestI < 0 {
			break
		}
		e := g.Edge(addBackbone(bestI, bestJ))
		labels.add(bestI, bestJ, e.Weight)
		inTree[[2]int{bestI, bestJ}] = true
		cur = bestNew
	}
	return nil
}

// legacyBuild is BuildContext on legacyBackbone.
func legacyBuild(ctx context.Context, t *testing.T, cfg Config) (*Design, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	des := &Design{Graph: graph.New(0)}
	des.POPCity = placePOPs(&c)
	for _, ci := range des.POPCity {
		city := c.Geography.Cities[ci]
		des.POPs = append(des.POPs, des.Graph.AddNode(graph.Node{
			Kind: graph.KindPOP, X: city.Loc.X, Y: city.Loc.Y, Label: city.Name,
		}))
	}
	if err := legacyBackbone(ctx, t, &c, des); err != nil {
		return nil, err
	}
	if err := buildMetros(ctx, &c, des); err != nil {
		return nil, err
	}
	return des, nil
}

// TestBackboneLabelsMatchRouting holds the backbone's label pricing to
// the clone-and-route loop it replaced: every candidate link of every
// round must price bit for bit as routing prices it, and each whole
// design must equal the legacy one. It covers 2 to 30 POPs, both
// formulations, top-city and k-median placement, three demand models
// and two performance weights, so that some rounds add links and some
// stop early.
func TestBackboneLabelsMatchRouting(t *testing.T) {
	demands := []trafficreg.Selection{{}, {Name: "zipf-hotspot"}, {Name: "uniform"}}
	extra := 0
	for seed := int64(1); seed <= 4; seed++ {
		geo := testGeo(t, 40, seed)
		for pi, pops := range []int{2, 3, 7, 12, 20, 30} {
			for fi, form := range []Formulation{CostBased, ProfitBased} {
				cfg := Config{
					Geography: geo, NumPOPs: pops, Customers: 150, Seed: seed,
					PerfWeight: []float64{50, 3000}[(int(seed)+fi)%2], MaxExtraBackboneLinks: 6,
					DemandMin: 1, DemandMax: 6, Formulation: form, PricePerDemand: 0.5,
					Demand: demands[(int(seed)+pi)%len(demands)], Placement: POPPlacement(pi % 2),
				}
				name := fmt.Sprintf("seed %d pops %d form %d", seed, pops, form)
				want, err := legacyBuild(context.Background(), t, cfg)
				if err != nil {
					t.Fatalf("%s: legacy: %v", name, err)
				}
				got, err := BuildContext(context.Background(), cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if designDigest(got) != designDigest(want) {
					t.Fatalf("%s: design differs from the legacy backbone's: %d backbone links, legacy %d",
						name, len(got.BackboneEdges), len(want.BackboneEdges))
				}
				extra += len(got.BackboneEdges) - (len(got.POPs) - 1)
			}
		}
	}
	if extra == 0 {
		t.Fatal("no design added a link beyond the MST")
	}
}

// cancelAfter is a context whose Err turns to context.Canceled on its
// n-th call, counting the calls it has answered.
type cancelAfter struct {
	context.Context
	n, calls int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.n > 0 && c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestBackboneCanceledMidway cancels a design a few candidate links
// before its backbone search ends: the error must wrap errs.ErrCanceled
// and name the candidate link it stopped at.
func TestBackboneCanceledMidway(t *testing.T) {
	cfg := baseConfig(t, 3)
	cfg.NumPOPs = 12
	count := &cancelAfter{Context: context.Background()}
	if _, err := BuildContext(count, cfg); err != nil {
		t.Fatal(err)
	}
	// The last NumPOPs checks are the metros'; stop five before them.
	ctx := &cancelAfter{Context: context.Background(), n: count.calls - cfg.NumPOPs - 5}
	_, err := BuildContext(ctx, cfg)
	if !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("canceled design returned %v, want errs.ErrCanceled", err)
	}
	if !strings.Contains(err.Error(), "isp: backbone link") {
		t.Fatalf("canceled design returned %v, want a backbone link error", err)
	}
}
