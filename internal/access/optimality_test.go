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

// TestSampleAndAugmentNearestHub replays SampleAndAugment's promotions
// and requires each level's edge for every customer not promoted to run
// to the hub of smallest (squared distance, promotion order), weighted
// with the square root of that squared distance, or to the root when the
// root is strictly closer. Customers sit on the points of a dyadic
// lattice, several to a point, so hub choices tie between co-located
// hubs and between hubs at equal distances in different directions.
func TestSampleAndAugmentNearestHub(t *testing.T) {
	r := rng.New(5)
	var locs []geom.Point
	for i := 0; i <= 8; i++ {
		for j := 0; j <= 8; j++ {
			locs = append(locs, geom.Point{X: float64(i) / 8, Y: float64(j) / 8})
		}
	}
	in := &Instance{Root: geom.Point{X: 0.5, Y: 0.5}, Catalog: DefaultCatalog()}
	for range 300 {
		in.Customers = append(in.Customers, Customer{Loc: locs[r.Intn(len(locs))], Demand: 1})
	}
	const seed, p = 3, 0.3
	net, err := SampleAndAugment(in, seed, p)
	if err != nil {
		t.Fatal(err)
	}
	n := len(in.Customers)
	r = rng.New(seed)
	level := make([]int, n+1)
	var survivors []int
	for v := 1; v <= n; v++ {
		survivors = append(survivors, v)
	}
	e, ties := 0, 0
	for l := 1; l < len(in.Catalog) && len(survivors) > 1; l++ {
		var next []int
		for _, v := range survivors {
			if r.Float64() < p {
				next = append(next, v)
				level[v] = l
			}
		}
		if len(next) == 0 {
			keep := survivors[r.Intn(len(survivors))]
			next = append(next, keep)
			level[keep] = l
		}
		for _, v := range survivors {
			if level[v] >= l {
				continue
			}
			loc := in.Customers[v-1].Loc
			want, wantD2, tied := -1, math.Inf(1), false
			for _, h := range next {
				d2 := loc.Dist2(in.Customers[h-1].Loc)
				tied = tied || d2 == wantD2
				if d2 < wantD2 {
					want, wantD2, tied = h, d2, false
				}
			}
			w := math.Sqrt(wantD2)
			if rd := loc.Dist(in.Root); rd < w {
				want, w = 0, rd
			} else if tied {
				ties++
			}
			if got := net.Graph.Edge(e); got.U != want || got.V != v || got.Weight != w {
				t.Fatalf("level %d: edge %d = (%d, %d, %v), want (%d, %d, %v)", l, e, got.U, got.V, got.Weight, want, v, w)
			}
			e++
		}
		survivors = next
	}
	if ties < 100 {
		t.Fatalf("only %d tied hub choices", ties)
	}
}
