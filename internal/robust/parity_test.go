package robust

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/attackreg"
	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// parityModels builds the generator-model spread the parity tests pin:
// a preferential-attachment hub topology, a same-density Erdős–Rényi
// baseline, and a geometric Waxman graph (disconnected components and
// coordinate structure), each at two seeds.
func parityModels(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for _, seed := range []int64{1, 2} {
		ba, err := gen.BarabasiAlbert(250, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("ba/seed=%d", seed)] = ba
		er, err := gen.ErdosRenyiGNM(250, ba.NumEdges(), seed)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("er/seed=%d", seed)] = er
		wx, err := gen.Waxman(250, 0.6, 0.15, seed)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("waxman/seed=%d", seed)] = wx
	}
	return out
}

// TestIncrementalParity is the engine's core contract: for every
// generator model, seed, and attack — node- and edge-targeted,
// deterministic and randomized — the union-find replay of the LCC curve
// must be bit-for-bit identical to the masked-BFS path, full removal
// included.
func TestIncrementalParity(t *testing.T) {
	fracs := []float64{0, 0.03, 0.1, 0.25, 0.5, 0.8, 1}
	attacks := []string{
		"random-failure", "degree", "adaptive-degree", "betweenness",
		"geographic", "preferential", "random-edge", "bottleneck-edge",
	}
	for name, g := range parityModels(t) {
		c := g.Freeze()
		for _, attack := range attacks {
			spec := SweepSpec{Attack: attack, Fracs: fracs, Trials: 3}
			masked, err := sweep(context.Background(), g, c, spec, 11, true)
			if err != nil {
				t.Fatalf("%s/%s masked: %v", name, attack, err)
			}
			replay, err := RunSweepContext(context.Background(), g, c, spec, 11)
			if err != nil {
				t.Fatalf("%s/%s replay: %v", name, attack, err)
			}
			if !reflect.DeepEqual(masked, replay) {
				t.Fatalf("%s/%s: paths diverged\nmasked: %v\nreplay: %v",
					name, attack, masked[0].Values, replay[0].Values)
			}
		}
	}
}

// lccByDFS is the certificate side of TestSweepLCCCertificate: the
// largest component of g with the marked nodes and edges removed, found
// by an iterative DFS over Graph.Neighbors — no CSR snapshot, no
// union-find, no masked kernel.
func lccByDFS(g *graph.Graph, removedNode, removedEdge []bool) int {
	seen := make([]bool, g.NumNodes())
	best := 0
	var stack []int
	for s := range seen {
		if seen[s] || removedNode[s] {
			continue
		}
		seen[s] = true
		stack = append(stack[:0], s)
		size := 0
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			g.Neighbors(u, func(v, e int) {
				if !seen[v] && !removedNode[v] && !removedEdge[e] {
					seen[v] = true
					stack = append(stack, v)
				}
			})
		}
		best = max(best, size)
	}
	return best
}

// TestSweepLCCCertificate recomputes every sweep point independently of
// both evaluation paths: the attack's own single-trial schedule, its
// prefix int(frac*total) removed, and the largest component found by
// lccByDFS, divided by n. RunSweepContext must match bit for bit.
func TestSweepLCCCertificate(t *testing.T) {
	ctx := context.Background()
	fracs := []float64{0, 0.1, 0.5, 1}
	const seed = 5
	for name, g := range parityModels(t) {
		n, m := g.NumNodes(), g.NumEdges()
		for _, attack := range []string{"degree", "random-failure", "random-edge"} {
			atk, err := attackreg.Lookup(attack)
			if err != nil {
				t.Fatal(err)
			}
			p, err := attackreg.Resolve(atk, nil)
			if err != nil {
				t.Fatal(err)
			}
			order, err := atk.Schedule(ctx, g, p, rng.Derive(seed, 0))
			if err != nil {
				t.Fatal(err)
			}
			curves, err := RunSweepContext(ctx, g, nil, SweepSpec{Attack: attack, Fracs: fracs, Trials: 1}, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range fracs {
				removedNode, removedEdge := make([]bool, n), make([]bool, m)
				removed, total := removedNode, n
				if atk.Target() == attackreg.Edges {
					removed, total = removedEdge, m
				}
				for _, id := range order[:int(f*float64(total))] {
					removed[id] = true
				}
				want := float64(lccByDFS(g, removedNode, removedEdge)) / float64(n)
				if got := curves[0].Values[i]; got != want {
					t.Fatalf("%s/%s frac %v: sweep LCC %v, DFS certificate %v", name, attack, f, got, want)
				}
			}
		}
	}
}

// TestAutoModeMatchesLegacySweep pins that the path RunSweepContext
// picks for the plain LCC curve (the union-find replay) reproduces the
// masked path's curve exactly.
func TestAutoModeMatchesLegacySweep(t *testing.T) {
	g, err := gen.BarabasiAlbert(180, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{Attack: "random-failure", Fracs: []float64{0.05, 0.2, 0.6}, Trials: 4}
	auto, err := RunSweepContext(context.Background(), g, nil, spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	masked, err := sweep(context.Background(), g, nil, spec, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range spec.Fracs {
		if auto[0].Values[i] != masked[0].Values[i] {
			t.Fatalf("frac %v: auto %v != masked %v", f, auto[0].Values[i], masked[0].Values[i])
		}
	}
}

func TestSweepEdgeCasesBothPaths(t *testing.T) {
	single := graph.New(1)
	single.AddNode(graph.Node{})
	pair := graph.New(2)
	pair.AddNode(graph.Node{})
	pair.AddNode(graph.Node{})
	pair.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1})

	for _, masked := range []bool{true, false} {
		run := func(g *graph.Graph, spec SweepSpec, seed int64) ([]MetricCurve, error) {
			return sweep(context.Background(), g, nil, spec, seed, masked)
		}
		// Empty graph: rejected on both paths.
		_, err := run(graph.New(0), SweepSpec{Attack: "random-failure", Fracs: []float64{0.1}}, 1)
		if !errors.Is(err, errs.ErrBadParam) {
			t.Fatalf("masked=%v: empty graph gave %v, want ErrBadParam", masked, err)
		}

		// Single node: frac 0 keeps it (LCC 1), frac 1 removes it (LCC 0).
		curves, err := run(single, SweepSpec{Attack: "degree", Fracs: []float64{0, 1}}, 1)
		if err != nil {
			t.Fatalf("masked=%v: single node: %v", masked, err)
		}
		if got := curves[0].Values; got[0] != 1 || got[1] != 0 {
			t.Fatalf("masked=%v: single-node curve = %v, want [1 0]", masked, got)
		}

		// Single node under an edge attack: no edges exist, so every
		// fraction leaves the intact graph.
		curves, err = run(single, SweepSpec{Attack: "random-edge", Fracs: []float64{0, 0.5, 1}}, 1)
		if err != nil {
			t.Fatalf("masked=%v: single node edge attack: %v", masked, err)
		}
		for i, v := range curves[0].Values {
			if v != 1 {
				t.Fatalf("masked=%v: edgeless edge-attack value[%d] = %v, want 1", masked, i, v)
			}
		}

		// frac 0 and frac 1 on a 2-node graph, node and edge targets.
		curves, err = run(pair, SweepSpec{Attack: "random-failure", Fracs: []float64{0, 1}, Trials: 2}, 3)
		if err != nil {
			t.Fatalf("masked=%v: pair: %v", masked, err)
		}
		if got := curves[0].Values; got[0] != 1 || got[1] != 0 {
			t.Fatalf("masked=%v: pair node curve = %v, want [1 0]", masked, got)
		}
		curves, err = run(pair, SweepSpec{Attack: "random-edge", Fracs: []float64{0, 1}, Trials: 2}, 3)
		if err != nil {
			t.Fatalf("masked=%v: pair edges: %v", masked, err)
		}
		if got := curves[0].Values; got[0] != 1 || got[1] != 0.5 {
			t.Fatalf("masked=%v: pair edge curve = %v, want [1 0.5]", masked, got)
		}
	}
}

// TestAttackGapBaselineMatchesTarget pins that the gap baseline shares
// the attack's removal denominator: for the uniform random attack on
// either target, baseline and attack are the same sweep, so the gap is
// exactly zero — which fails if an edge attack were compared against
// node-removal random failure.
func TestAttackGapBaselineMatchesTarget(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, attack := range []string{"random-failure", "random-edge"} {
		gap, err := AttackGapContext(context.Background(), g, nil, attack, nil,
			[]float64{0.1, 0.3, 0.6}, 3, 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		if gap != 0 {
			t.Fatalf("%s vs its own baseline: gap = %v, want exactly 0", attack, gap)
		}
	}
	if name := BaselineFor(attackreg.Edges); name != "random-edge" {
		t.Fatalf("edge baseline = %q", name)
	}
}

func TestRunSweepSpecValidation(t *testing.T) {
	g, err := gen.BarabasiAlbert(30, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// gap cases run the spec's attack and fractions through
	// AttackGapContext instead of RunSweepContext.
	cases := []struct {
		name string
		spec SweepSpec
		gap  bool
	}{
		{"unknown attack", SweepSpec{Attack: "nope", Fracs: []float64{0.1}}, false},
		{"bad attack param", SweepSpec{Attack: "geographic", Params: attackreg.Params{"z": 1}, Fracs: []float64{0.1}}, false},
		{"fraction above 1", SweepSpec{Attack: "degree", Fracs: []float64{1.5}}, false},
		{"negative fraction", SweepSpec{Attack: "degree", Fracs: []float64{-0.5}}, false},
		{"edge attack non-lcc", SweepSpec{Attack: "random-edge", Fracs: []float64{0.1},
			Metrics: []string{"lcc", "mean-degree"}}, false},
		{"unknown metric", SweepSpec{Attack: "degree", Fracs: []float64{0.1},
			Metrics: []string{"nope"}}, false},
		{"attack gap without fractions", SweepSpec{Attack: "degree"}, true},
	}
	for _, tc := range cases {
		var err error
		if tc.gap {
			_, err = AttackGapContext(context.Background(), g, nil, tc.spec.Attack, tc.spec.Params, tc.spec.Fracs, 1, 1, 0)
		} else {
			_, err = RunSweepContext(context.Background(), g, nil, tc.spec, 1)
		}
		if !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("%s: got %v, want ErrBadParam", tc.name, err)
		}
	}
}

func TestCheckScheduleRejectsNonPermutations(t *testing.T) {
	for _, tc := range []struct {
		order []int
		total int
	}{
		{[]int{0, 1}, 3},
		{[]int{0, 0, 1}, 3},
		{[]int{0, 1, 3}, 3},
		{[]int{0, 1, -1}, 3},
	} {
		if err := checkSchedule(tc.order, tc.total, "x"); !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("checkSchedule(%v, %d) = %v, want ErrBadParam", tc.order, tc.total, err)
		}
	}
	if err := checkSchedule([]int{2, 0, 1}, 3, "x"); err != nil {
		t.Fatalf("valid permutation rejected: %v", err)
	}
}
