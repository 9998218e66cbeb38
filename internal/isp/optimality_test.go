package isp

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
)

// The metro attachment oracle: every customer a metro serves must attach
// where its cost-distance objective is smallest. The oracle re-derives
// each candidate's cost from the finished design graph alone — node
// coordinates and demands and the edge list in insertion order — and
// shares no state with the designer or its attachment index: a node's
// usage cost to its POP is summed along its tree path, a router's port
// occupancy is counted over the edges inserted before the customer's,
// and lengths are Euclidean distances between coordinates.

// metroOracle replays des's metro customers in attach order and fails
// unless each attached to the (cost, attach order) minimum of its
// metro's earlier nodes with a free port, or to its POP when every port
// was full. It returns how many customers fell back to a full POP.
func metroOracle(t *testing.T, label string, cfg Config, des *Design) int {
	t.Helper()
	g := des.Graph
	n := g.NumNodes()
	sigmaThin := cfg.Catalog[0].Install
	deltaBulk := cfg.Catalog[len(cfg.Catalog)-1].Usage
	popIndex := make(map[int]int, len(des.POPs))
	for i, id := range des.POPs {
		popIndex[id] = i
	}
	// Each customer's parent edge, its POP, and its usage cost to it.
	parent := make([]int, n)
	usage := make([]float64, n)
	pop := make([]int, n)
	for v := range pop {
		parent[v], pop[v] = -1, -1
	}
	for _, id := range des.POPs {
		pop[id] = id
	}
	edgeOf := make([]int, n)
	for k, e := range g.Edges() {
		if g.Node(e.V).Kind != graph.KindCustomer {
			continue
		}
		if e.U >= e.V || parent[e.V] >= 0 || pop[e.U] < 0 {
			t.Fatalf("%s: edge %d (%d-%d) does not attach a new customer to an earlier metro node", label, k, e.U, e.V)
		}
		if want := dist(g, e.U, e.V); e.Weight != want {
			t.Fatalf("%s: edge %d weight %v, Euclidean length %v", label, k, e.Weight, want)
		}
		parent[e.V], edgeOf[e.V], pop[e.V] = e.U, k, pop[e.U]
		usage[e.V] = usage[e.U] + deltaBulk*e.Weight
	}

	deg := make([]int, n)
	edges := g.Edges()
	next := 0 // edges before next are counted in deg
	lastMetro := -1
	fallbacks := 0
	accessCost, revenue := 0.0, 0.0
	var members []int // the current metro's nodes in attach order, POP first
	for v := 0; v < n; v++ {
		if g.Node(v).Kind != graph.KindCustomer {
			continue
		}
		if parent[v] < 0 {
			t.Fatalf("%s: customer %d has no parent edge", label, v)
		}
		for ; next < edgeOf[v]; next++ {
			deg[edges[next].U]++
			deg[edges[next].V]++
		}
		if m := popIndex[pop[v]]; m != lastMetro {
			if m < lastMetro {
				t.Fatalf("%s: customer %d belongs to metro %d after metro %d", label, v, m, lastMetro)
			}
			lastMetro, members = m, []int{pop[v]}
		}
		dem := g.Node(v).Capacity
		want, wantCost := -1, math.Inf(1)
		for _, j := range members {
			if cfg.MaxPorts > 0 && deg[j] >= cfg.MaxPorts {
				continue
			}
			d := dist(g, v, j)
			if cost := sigmaThin*d + (usage[j]+deltaBulk*d)*dem; cost < wantCost {
				want, wantCost = j, cost
			}
		}
		if want < 0 {
			want = pop[v]
			d := dist(g, v, want)
			wantCost = sigmaThin*d + deltaBulk*d*dem
			fallbacks++
		}
		if parent[v] != want {
			t.Fatalf("%s: customer %d attached to %d, cheapest by (cost, attach order) %d", label, v, parent[v], want)
		}
		if cfg.Formulation == ProfitBased {
			rev := cfg.PricePerDemand * dem
			if rev < wantCost {
				t.Fatalf("%s: customer %d served at cost %v above its revenue %v", label, v, wantCost, rev)
			}
			revenue += rev
		}
		accessCost += wantCost
		members = append(members, v)
	}
	if accessCost != des.AccessCost || revenue != des.Revenue {
		t.Fatalf("%s: access cost %v and revenue %v, replayed %v and %v", label, des.AccessCost, des.Revenue, accessCost, revenue)
	}
	return fallbacks
}

func dist(g *graph.Graph, a, b int) float64 {
	u, v := g.Node(a), g.Node(b)
	return math.Hypot(u.X-v.X, u.Y-v.Y)
}

// TestMetroOptimalAttachment checks every served customer of cost- and
// profit-based designs, with and without a port cap, against the
// oracle. The wide-spread cases clamp most customers onto the region's
// corners, so equal-cost candidates are common and the attach-order tie
// break decides.
func TestMetroOptimalAttachment(t *testing.T) {
	cases := []struct {
		name      string
		price     float64
		ports     int
		spread    float64
		fallbacks bool // some customer must find every port full
	}{
		{"cost", 0, 0, 0, false},
		{"cost-ports4", 0, 4, 0, false},
		{"profit", 0.02, 0, 0, false},
		{"profit-ports4", 0.02, 4, 0, false},
		{"cost-corner-ties", 0, 0, 3, false},
		{"cost-corner-ties-ports2", 0, 2, 3, true},
		{"profit-corner-ties-ports4", 0.05, 4, 3, false},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 2} {
			cfg := baseConfig(t, seed)
			cfg.Customers = 1200
			cfg.MaxPorts = tc.ports
			cfg.MetroSpread = tc.spread
			if tc.price > 0 {
				cfg.Formulation, cfg.PricePerDemand = ProfitBased, tc.price
			}
			des, err := BuildContext(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			cfg, _ = cfg.withDefaults()
			fallbacks := metroOracle(t, tc.name, cfg, des)
			if tc.fallbacks != (fallbacks > 0) {
				t.Fatalf("%s: %d customers fell back to a full POP", tc.name, fallbacks)
			}
			if tc.price > 0 && des.CustomersServed == des.CustomersOffered {
				t.Fatalf("%s: the admission test rejected no customer", tc.name)
			}
		}
	}
}
