package access

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// The MMP attachment oracle: every customer must attach where its
// cost-distance objective is smallest among the nodes attached before
// it. The oracle re-derives each candidate's cost from the solved
// network's graph alone — coordinates, demands and the edge list, whose
// order is the attach order — and shares no state with MMPIncremental or
// its attachment index: a node's usage cost to the root is summed along
// its tree path and lengths are Euclidean distances between coordinates.
func mmpOracle(t *testing.T, label string, in *Instance, net *Network) {
	t.Helper()
	g := net.Graph
	sigmaThin := in.Catalog[0].Install
	deltaBulk := in.Catalog[len(in.Catalog)-1].Usage
	dist := func(a, b int) float64 {
		u, v := g.Node(a), g.Node(b)
		return math.Hypot(u.X-v.X, u.Y-v.Y)
	}
	usage := make([]float64, g.NumNodes())
	seen := make([]bool, g.NumNodes())
	attached := []int{0} // attach order, root first
	for k, e := range g.Edges() {
		v := e.V
		if v == 0 || seen[v] {
			t.Fatalf("%s: edge %d (%d-%d) does not attach a new customer", label, k, e.U, e.V)
		}
		dem := g.Node(v).Capacity
		want, wantCost := -1, math.Inf(1)
		for _, j := range attached {
			d := dist(v, j)
			if cost := sigmaThin*d + (usage[j]+deltaBulk*d)*dem; cost < wantCost {
				want, wantCost = j, cost
			}
		}
		if e.U != want {
			t.Fatalf("%s: customer %d (edge %d) attached to %d, cheapest by (cost, attach order) %d", label, v, k, e.U, want)
		}
		if e.Weight != dist(v, e.U) {
			t.Fatalf("%s: edge %d weight %v, Euclidean length %v", label, k, e.Weight, dist(v, e.U))
		}
		usage[v] = usage[e.U] + deltaBulk*e.Weight
		seen[v] = true
		attached = append(attached, v)
	}
	if len(attached) != len(in.Customers)+1 {
		t.Fatalf("%s: %d of %d customers attached", label, len(attached)-1, len(in.Customers))
	}
}

// TestMMPOptimalAttachment checks every arrival of MMPIncremental against
// the oracle on uniform and clustered instances and on one whose
// customers share a few locations: a customer arriving at an occupied
// location rides its twin at distance 0, so later arrivals see exact
// cost ties between twins, which the attach order must break.
func TestMMPOptimalAttachment(t *testing.T) {
	var instances []*Instance
	for seed := int64(1); seed <= 3; seed++ {
		for _, cfg := range []InstanceConfig{
			{N: 600, Seed: seed},
			{N: 600, Seed: seed, DemandMax: 20},
			{N: 800, Seed: seed, Clusters: 5, ClusterSigma: 0.03, DemandMax: 8},
		} {
			in, err := RandomInstance(cfg)
			if err != nil {
				t.Fatal(err)
			}
			instances = append(instances, in)
		}
	}
	r := rng.New(7)
	sites := geom.UnitSquare.RandomPoints(r, 40)
	twins := &Instance{Root: geom.Point{X: 0.5, Y: 0.5}, Catalog: DefaultCatalog()}
	for i := 0; i < 400; i++ {
		twins.Customers = append(twins.Customers, Customer{Loc: sites[r.Intn(len(sites))], Demand: float64(1 + r.Intn(3))})
	}
	instances = append(instances, twins)
	for i, in := range instances {
		for _, seed := range []int64{1, 2} {
			net, err := MMPIncremental(in, seed)
			if err != nil {
				t.Fatal(err)
			}
			mmpOracle(t, fmt.Sprintf("instance %d seed %d", i, seed), in, net)
		}
	}
}
