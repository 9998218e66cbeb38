package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/errs"
	"repro/internal/graph"
)

// The growth optimality oracle: every arrival must attach where its
// objective is smallest. The oracle re-derives each earlier node's cost
// from the grown graph alone — node coordinates and the edge list in
// insertion order — and shares no state with the growth loop or the
// grid index: a node's hop count is the minimum over its attachment
// parents plus one, its degree is counted over earlier arrivals' edges,
// and lengths are Euclidean distances between coordinates.

type oracleCand struct {
	j    int
	cost float64
}

// arrivalParents splits g's edges by arrival: parents[i] lists, in edge
// order, the nodes arrival i attached to. Each edge must join an earlier
// node to its arrival, arrivals in order, with the Euclidean length of
// the link as its weight.
func arrivalParents(t *testing.T, label string, g *graph.Graph) [][]int {
	t.Helper()
	parents := make([][]int, g.NumNodes())
	last := 0
	for k, e := range g.Edges() {
		if e.U >= e.V || e.V < last {
			t.Fatalf("%s: edge %d (%d-%d) does not join an earlier node to the next arrival", label, k, e.U, e.V)
		}
		last = e.V
		u, v := g.Node(e.U), g.Node(e.V)
		if want := math.Hypot(v.X-u.X, v.Y-u.Y); e.Weight != want {
			t.Fatalf("%s: edge %d weight %v, Euclidean length %v", label, k, e.Weight, want)
		}
		parents[e.V] = append(parents[e.V], e.U)
	}
	return parents
}

// cheapest returns the ids of the k smallest candidates by (cost, id).
func cheapest(cands []oracleCand, k int) []int {
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].cost != cands[b].cost {
			return cands[a].cost < cands[b].cost
		}
		return cands[a].j < cands[b].j
	})
	var out []int
	for _, c := range cands[:min(k, len(cands))] {
		out = append(out, c.j)
	}
	return out
}

// checkOptimal walks g's arrivals in order. price returns arrival i's
// cost of attaching to earlier node j and whether the constraints allow
// it, given the recounted hop counts and degrees of the nodes before i.
// Each arrival must attach, in edge order, to the links cheapest
// feasible candidates, or to the links cheapest of all when none is
// feasible. It returns the number of such unconstrained arrivals.
func checkOptimal(t *testing.T, label string, g *graph.Graph, links int,
	price func(i, j int, hops []float64, deg []int) (float64, bool)) int {
	t.Helper()
	n := g.NumNodes()
	parents := arrivalParents(t, label, g)
	hops := make([]float64, n)
	deg := make([]int, n)
	fallbacks := 0
	for i := 1; i < n; i++ {
		var feasible, all []oracleCand
		for j := 0; j < i; j++ {
			cost, ok := price(i, j, hops, deg)
			all = append(all, oracleCand{j, cost})
			if ok {
				feasible = append(feasible, oracleCand{j, cost})
			}
		}
		want := feasible
		if len(feasible) == 0 {
			want = all
			fallbacks++
		}
		if got, want := fmt.Sprint(parents[i]), fmt.Sprint(cheapest(want, links)); got != want {
			t.Fatalf("%s: arrival %d attached to %s, cheapest by (cost, id) %s", label, i, got, want)
		}
		for k, u := range parents[i] {
			deg[u]++
			if h := hops[u] + 1; k == 0 || h < hops[i] {
				hops[i] = h
			}
		}
		deg[i] = len(parents[i])
	}
	return fallbacks
}

// dist is the Euclidean distance between nodes a and b of g.
func dist(g *graph.Graph, a, b int) float64 {
	u, v := g.Node(a), g.Node(b)
	return math.Hypot(u.X-v.X, u.Y-v.Y)
}

// hotPrice prices an attachment the way cfg's weights and caps define
// it.
func hotPrice(g *graph.Graph, cfg HOTConfig) func(i, j int, hops []float64, deg []int) (float64, bool) {
	return func(i, j int, hops []float64, deg []int) (float64, bool) {
		d := dist(g, i, j)
		cost := float64(cfg.Distance*d) + float64(cfg.Centrality*hops[j]) +
			float64(cfg.Load*float64(deg[j])) + float64(cfg.RootDist*dist(g, j, 0))
		ok := (cfg.MaxDegree == 0 || deg[j] < cfg.MaxDegree) && (cfg.MaxLength == 0 || d <= cfg.MaxLength)
		return cost, ok
	}
}

// fkpPrice prices an FKP attachment: Alpha times the length plus the
// configured centrality.
func fkpPrice(g *graph.Graph, cfg FKPConfig) func(i, j int, hops []float64, deg []int) (float64, bool) {
	return func(i, j int, hops []float64, deg []int) (float64, bool) {
		cent := hops[j]
		if cfg.Centrality == DistToRoot {
			cent = dist(g, j, 0)
		}
		return float64(cfg.Alpha*dist(g, i, j)) + cent, cfg.MaxDegree == 0 || deg[j] < cfg.MaxDegree
	}
}

// TestGrowHOTOptimalAttachment checks every arrival of HOT growth,
// on both candidate scans, against the oracle.
func TestGrowHOTOptimalAttachment(t *testing.T) {
	cases := []struct {
		name      string
		cfg       HOTConfig
		fallbacks bool // the constraints must force unconstrained arrivals
	}{
		{"distance-centrality", HOTConfig{N: 250, Seed: 21, Distance: 8, Centrality: 1}, false},
		{"multilink", HOTConfig{N: 250, Seed: 22, LinksPerArrival: 3, Distance: 8, Centrality: 1}, false},
		{"load-rootdist", HOTConfig{N: 250, Seed: 23, LinksPerArrival: 2,
			Distance: 2, Load: 0.5, RootDist: 1.5}, false},
		{"centrality-load-ties", HOTConfig{N: 200, Seed: 24, LinksPerArrival: 2,
			Centrality: 1, Load: 0.25}, false},
		{"all-four-weights", HOTConfig{N: 250, Seed: 28, LinksPerArrival: 2,
			Distance: 3, Centrality: 0.5, Load: 0.2, RootDist: 0.7}, false},
		{"degree-capped", HOTConfig{N: 250, Seed: 25, LinksPerArrival: 2,
			Distance: 8, Centrality: 1, MaxDegree: 4}, false},
		{"length-capped-fallback", HOTConfig{N: 250, Seed: 26,
			Distance: 8, Centrality: 1, MaxLength: 0.05}, true},
		{"both-caps-fallback", HOTConfig{N: 250, Seed: 27, LinksPerArrival: 2,
			Distance: 4, Centrality: 1, Load: 0.1, MaxDegree: 2, MaxLength: 0.08}, true},
	}
	for _, tc := range cases {
		for _, scan := range []struct {
			name       string
			exhaustive bool
		}{{"exhaustive", true}, {"grid", false}} {
			label := tc.name + "/" + scan.name
			g, st, err := growHOT(context.Background(), tc.cfg, scan.exhaustive)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			links := max(tc.cfg.LinksPerArrival, 1)
			fallbacks := checkOptimal(t, label, g, links, hotPrice(g, tc.cfg))
			if fallbacks != st.ConstraintViolations {
				t.Fatalf("%s: %d arrivals had no feasible candidate, stats report %d", label, fallbacks, st.ConstraintViolations)
			}
			if tc.fallbacks != (fallbacks > 0) {
				t.Fatalf("%s: %d unconstrained arrivals", label, fallbacks)
			}
		}
	}
}

// TestFKPOptimalAttachment checks every arrival of FKP growth, on both
// candidate scans and for each centrality, against the oracle, and that
// FKP fails with errs.ErrInfeasible exactly when an arrival finds every
// earlier node at the degree cap.
func TestFKPOptimalAttachment(t *testing.T) {
	cases := []struct {
		name string
		cfg  FKPConfig
	}{
		{"hops", FKPConfig{N: 250, Alpha: 8, Seed: 31}},
		{"hops-alpha0-ties", FKPConfig{N: 200, Alpha: 0, Seed: 32}},
		{"root-dist", FKPConfig{N: 250, Alpha: 8, Seed: 33, Centrality: DistToRoot}},
		{"root-dist-capped", FKPConfig{N: 250, Alpha: 2, Seed: 34, Centrality: DistToRoot, MaxDegree: 3}},
		{"star-regime-capped", FKPConfig{N: 250, Alpha: 0.3, Seed: 35, MaxDegree: 3}},
		{"star-regime-two-ports", FKPConfig{N: 250, Alpha: 0.3, Seed: 37, MaxDegree: 2}},
	}
	for _, scan := range []struct {
		name       string
		exhaustive bool
	}{{"exhaustive", true}, {"grid", false}} {
		for _, tc := range cases {
			label := tc.name + "/" + scan.name
			g, err := fkp(context.Background(), tc.cfg, scan.exhaustive)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if f := checkOptimal(t, label, g, 1, fkpPrice(g, tc.cfg)); f != 0 {
				t.Fatalf("%s: %d arrivals had no feasible candidate yet FKP grew", label, f)
			}
		}
		// With one port per router the third arrival finds both earlier
		// nodes full. Grow one node at a time up to the failure.
		cfg := FKPConfig{Alpha: 1, Seed: 36, MaxDegree: 1}
		var last *graph.Graph
		for cfg.N = 1; ; cfg.N++ {
			if cfg.N > 10 {
				t.Fatalf("%s: FKP with MaxDegree 1 never became infeasible", scan.name)
			}
			g, err := fkp(context.Background(), cfg, scan.exhaustive)
			if err != nil {
				if !errors.Is(err, errs.ErrInfeasible) {
					t.Fatalf("%s: N=%d: %v, want ErrInfeasible", scan.name, cfg.N, err)
				}
				break
			}
			label := fmt.Sprintf("infeasible-prefix/%s/N=%d", scan.name, cfg.N)
			if f := checkOptimal(t, label, g, 1, fkpPrice(g, cfg)); f != 0 {
				t.Fatalf("%s: %d arrivals had no feasible candidate yet FKP grew", label, f)
			}
			last = g
		}
		for v := 0; v < last.NumNodes(); v++ {
			if last.Degree(v) < cfg.MaxDegree {
				t.Fatalf("%s: ErrInfeasible at N=%d, yet node %d had a free port", scan.name, cfg.N, v)
			}
		}
	}
}
