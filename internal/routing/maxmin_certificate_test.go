package routing

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// The max-min fairness certificate: with every flow pinned to a path,
// rates are max-min fair exactly when they are feasible and every flow
// below its demand has a bottleneck — a saturated edge on its path on
// which no other flow has a larger rate (Bertsekas & Gallager, Data
// Networks, 2nd ed., §6.5). The check below recomputes edge loads and
// per-edge peaks from the rates and paths alone, and shares nothing with
// the progressive filling beyond the paths, which define the problem.

// certTol is the relative tolerance of the certificate's comparisons;
// the filling subtracts each round's rise from every live edge, so its
// loads can drift from the capacities by a few ulps per round.
const certTol = 1e-9

func within(a, b float64) bool { return a <= b+certTol*math.Max(1, math.Abs(b)) }

// maxMinCertificate returns "" when rate is a max-min fair allocation of
// demands over paths on g's edge capacities, else the first violated
// condition.
func maxMinCertificate(g *graph.Graph, demands []Demand, paths [][]int32, rate []float64) string {
	load := make([]float64, g.NumEdges())
	peak := make([]float64, g.NumEdges())
	for i, p := range paths {
		r := rate[i]
		if !(r >= 0) {
			return fmt.Sprintf("flow %d has rate %v", i, r)
		}
		if len(p) == 0 && r != 0 {
			return fmt.Sprintf("flow %d has no path yet rate %v", i, r)
		}
		if !within(r, demands[i].Volume) {
			return fmt.Sprintf("flow %d rate %v exceeds its volume %v", i, r, demands[i].Volume)
		}
		for _, e := range p {
			load[e] += r
			peak[e] = math.Max(peak[e], r)
		}
	}
	for e, l := range load {
		if c := g.Edge(e).Capacity; !within(l, c) {
			return fmt.Sprintf("edge %d carries %v over its capacity %v", e, l, c)
		}
	}
	for i, p := range paths {
		if len(p) == 0 || within(demands[i].Volume, rate[i]) {
			continue
		}
		bottleneck := false
		for _, e := range p {
			if within(g.Edge(int(e)).Capacity, load[e]) && within(peak[e], rate[i]) {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			return fmt.Sprintf("flow %d at rate %v below its volume %v crosses no saturated edge on which its rate is the largest",
				i, rate[i], demands[i].Volume)
		}
	}
	return ""
}

// TestMaxMinFairCertificate certifies MaxMinFairContext on the kernel
// parity models under unit, provisioned and partly zero capacities, with
// demand volumes mixing zero, small (volume-capped) and large flows. As
// a negative control, the legacy allocator, which charges volume-capped
// flows their full share, must fail the certificate.
func TestMaxMinFairCertificate(t *testing.T) {
	models := []struct {
		name  string
		build func(seed int64) (*graph.Graph, error)
	}{
		{"ba", func(seed int64) (*graph.Graph, error) {
			return gen.BarabasiAlbertContext(context.Background(), 400, 2, seed)
		}},
		{"er-gnm", func(seed int64) (*graph.Graph, error) {
			return gen.ErdosRenyiGNMContext(context.Background(), 400, 900, seed)
		}},
		{"waxman", func(seed int64) (*graph.Graph, error) {
			return gen.WaxmanContext(context.Background(), 300, 0.1, 0.5, seed)
		}},
		{"fkp", func(seed int64) (*graph.Graph, error) {
			return core.FKPContext(context.Background(), core.FKPConfig{N: 300, Alpha: 8, Seed: seed})
		}},
	}
	capacities := []struct {
		name string
		set  func(g *graph.Graph, demands []Demand, r *rand.Rand) error
	}{
		{"unit", func(g *graph.Graph, _ []Demand, _ *rand.Rand) error {
			for i := range g.Edges() {
				g.Edge(i).Capacity = 1
			}
			return nil
		}},
		{"provisioned", func(g *graph.Graph, demands []Demand, r *rand.Rand) error {
			// Sized to the shortest-path load with random headroom or
			// deficit, so some edges bind and others do not.
			res, err := RouteShortestPathsContext(context.Background(), g, nil, demands)
			if err != nil {
				return err
			}
			for i := range g.Edges() {
				g.Edge(i).Capacity = math.Max(res.Load[i], 1) * (0.3 + r.Float64())
			}
			return nil
		}},
		{"zero", func(g *graph.Graph, _ []Demand, r *rand.Rand) error {
			for i := range g.Edges() {
				g.Edge(i).Capacity = 1 + 9*r.Float64()
				if r.Float64() < 0.1 {
					g.Edge(i).Capacity = 0
				}
			}
			return nil
		}},
	}
	legacyRejected := 0
	for _, m := range models {
		for _, seed := range []int64{1, 2} {
			g, err := m.build(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, cp := range capacities {
				label := fmt.Sprintf("%s/seed %d/%s", m.name, seed, cp.name)
				r := rng.New(rng.Derive(seed, 77))
				n := g.NumNodes()
				demands := make([]Demand, 0, 200)
				for len(demands) < 200 {
					s, d := r.Intn(n), r.Intn(n)
					if s == d {
						continue
					}
					var vol float64
					switch u := r.Float64(); {
					case u < 0.15:
						vol = 0
					case u < 0.5:
						vol = 0.005 + 0.1*r.Float64()
					default:
						vol = 1 + 20*r.Float64()
					}
					demands = append(demands, Demand{Src: s, Dst: d, Volume: vol})
				}
				if err := cp.set(g, demands, r); err != nil {
					t.Fatal(err)
				}
				ps, err := pinPaths(context.Background(), g.Freeze(), demands)
				if err != nil {
					t.Fatal(err)
				}
				res, err := MaxMinFairContext(context.Background(), g, nil, demands)
				if err != nil {
					t.Fatal(err)
				}
				if msg := maxMinCertificate(g, demands, ps.edges, res.Rate); msg != "" {
					t.Fatalf("%s: %s", label, msg)
				}
				old, err := maxMinFairLegacy(g, demands)
				if err != nil {
					t.Fatal(err)
				}
				if maxMinCertificate(g, demands, ps.edges, old.Rate) != "" {
					legacyRejected++
				}
			}
		}
	}
	if legacyRejected == 0 {
		t.Fatal("the certificate accepted the legacy allocator on every case")
	}
}
