package robust

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
		ba, err := gen.BarabasiAlbertContext(context.Background(), 250, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("ba/seed=%d", seed)] = ba
		er, err := gen.ErdosRenyiGNMContext(context.Background(), 250, ba.NumEdges(), seed)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("er/seed=%d", seed)] = er
		wx, err := gen.WaxmanContext(context.Background(), 250, 0.6, 0.15, seed)
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
			atk, p, err := attackreg.Default().Resolve(attackreg.Selection{Name: attack})
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

// certSchedules builds the fail/repair schedules that
// TestTimelineComponentCertificate walks on g. Each mixes node and edge
// events and steers into one corner of the epoch engine:
//   - no-ops: repeated fails and repairs of present items;
//   - hub: the top-degree node fails and comes back, twice;
//   - all-nodes: every node fails, then part of the graph returns;
//   - mixed and doubled: timelineSchedule's interleaving, alone and
//     concatenated with itself as a timeline's repeat: 2 unrolls it.
func certSchedules(g *graph.Graph) map[string][]TimelineEvent {
	n, m := g.NumNodes(), g.NumEdges()
	r := rand.New(rand.NewSource(int64(n + m)))
	hub := 0
	for v := 1; v < n; v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	ev := func(op TimelineOp, id int) TimelineEvent { return TimelineEvent{Op: op, ID: id} }
	a, b, ea, eb := r.Intn(n), r.Intn(n), r.Intn(m), r.Intn(m)
	noops := []TimelineEvent{
		ev(OpRepairNode, b), ev(OpRepairEdge, eb),
		ev(OpFailNode, a), ev(OpFailNode, a), ev(OpFailEdge, ea), ev(OpFailEdge, ea),
		ev(OpRepairNode, b), ev(OpRepairEdge, eb),
		ev(OpRepairNode, a), ev(OpRepairNode, a), ev(OpRepairEdge, ea), ev(OpRepairEdge, ea),
		ev(OpFailEdge, ea), ev(OpRepairNode, a),
	}

	hubCycle := []TimelineEvent{ev(OpFailNode, hub)}
	var downNodes, downEdges []int
	for i := 0; i < 5; i++ {
		v, e := r.Intn(n), r.Intn(m)
		downNodes, downEdges = append(downNodes, v), append(downEdges, e)
		hubCycle = append(hubCycle, ev(OpFailEdge, e), ev(OpFailNode, v))
	}
	hubCycle = append(hubCycle, ev(OpRepairNode, hub), ev(OpRepairNode, downNodes[0]),
		ev(OpFailNode, hub), ev(OpRepairEdge, downEdges[0]), ev(OpRepairEdge, downEdges[1]),
		ev(OpRepairNode, hub))

	var allNodes []TimelineEvent
	for i, v := range r.Perm(n) {
		allNodes = append(allNodes, ev(OpFailNode, v))
		if i%50 == 0 {
			allNodes = append(allNodes, ev(OpFailEdge, r.Intn(m)))
		}
	}
	for i, v := range r.Perm(n)[:n/2] {
		allNodes = append(allNodes, ev(OpRepairNode, v))
		if i%25 == 0 {
			allNodes = append(allNodes, ev(OpRepairEdge, r.Intn(m)))
		}
	}
	allNodes = append(allNodes, ev(OpFailNode, hub), ev(OpRepairNode, hub))

	mixed := timelineSchedule(g, 7, true)
	return map[string][]TimelineEvent{
		"no-ops":    noops,
		"hub":       hubCycle,
		"all-nodes": allNodes,
		"mixed":     mixed,
		"doubled":   append(append([]TimelineEvent{}, mixed...), mixed...),
	}
}

// certifyTrajectory returns the certificate side of a timeline: row k
// is lccByDFS after events[:k], divided by n. At every row it also
// certifies the masked-LCC kernel on the same masks: the node mask
// alone, the edge mask alone, and both together.
func certifyTrajectory(t *testing.T, g *graph.Graph, c *graph.CSR, events []TimelineEvent) []float64 {
	t.Helper()
	n, m := g.NumNodes(), g.NumEdges()
	ws := graph.GetWorkspace(n)
	defer ws.Release()
	removedNode, removedEdge := make([]bool, n), make([]bool, m)
	noNode, noEdge := make([]bool, n), make([]bool, m)
	rows := make([]float64, len(events)+1)
	for k := 0; ; k++ {
		both := lccByDFS(g, removedNode, removedEdge)
		rows[k] = float64(both) / float64(n)
		if got := c.LargestComponentMasked(ws, removedNode, removedEdge); got != both {
			t.Fatalf("row %d: both masks: LargestComponentMasked %d, DFS %d", k, got, both)
		}
		if got, want := c.LargestComponentMasked(ws, removedNode, nil), lccByDFS(g, removedNode, noEdge); got != want {
			t.Fatalf("row %d: node mask: LargestComponentMasked %d, DFS %d", k, got, want)
		}
		if got, want := c.LargestComponentMasked(ws, nil, removedEdge), lccByDFS(g, noNode, removedEdge); got != want {
			t.Fatalf("row %d: edge mask: LargestComponentMasked %d, DFS %d", k, got, want)
		}
		if k == len(events) {
			return rows
		}
		switch ev := events[k]; ev.Op {
		case OpFailNode, OpRepairNode:
			removedNode[ev.ID] = ev.Op == OpFailNode
		case OpFailEdge, OpRepairEdge:
			removedEdge[ev.ID] = ev.Op == OpFailEdge
		}
	}
}

// TestTimelineComponentCertificate certifies every row of every
// timeline path against lccByDFS, which shares no code with the
// union-find or the CSR kernels. Mixed schedules run in auto, epoch and
// masked mode. Their node-only restrictions also run in auto mode with
// "mean-degree" riding along on either side of "lcc": the curves must
// come back in the caller's order, lcc certified and mean-degree equal
// to the masked path's.
func TestTimelineComponentCertificate(t *testing.T) {
	ctx := context.Background()
	run := func(c *graph.CSR, events []TimelineEvent, metrics []string, mode TimelineMode) []MetricCurve {
		t.Helper()
		curves, err := RunTimelineContext(ctx, c, events, metrics, mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		return curves
	}
	for name, g := range parityModels(t) {
		c := g.Freeze()
		for sname, events := range certSchedules(g) {
			want := certifyTrajectory(t, g, c, events)
			for _, mode := range []TimelineMode{TimelineAuto, TimelineEpoch, TimelineMasked} {
				if got := run(c, events, nil, mode)[0].Values; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s (%s): lcc curve %v, DFS certificate %v", name, sname, mode, got, want)
				}
			}

			var nodeOnly []TimelineEvent
			for _, ev := range events {
				if ev.Op == OpFailNode || ev.Op == OpRepairNode {
					nodeOnly = append(nodeOnly, ev)
				}
			}
			want = certifyTrajectory(t, g, c, nodeOnly)
			meanDeg := run(c, nodeOnly, []string{"mean-degree"}, TimelineMasked)[0].Values
			for _, metrics := range [][]string{{"lcc", "mean-degree"}, {"mean-degree", "lcc"}} {
				curves := run(c, nodeOnly, metrics, TimelineAuto)
				for i, cv := range curves {
					if cv.Name != metrics[i] {
						t.Fatalf("%s/%s %v: curve %d is %q", name, sname, metrics, i, cv.Name)
					}
					ref := meanDeg
					if cv.Name == "lcc" {
						ref = want
					}
					if !reflect.DeepEqual(cv.Values, ref) {
						t.Fatalf("%s/%s node-only %v: %s curve %v, want %v", name, sname, metrics, cv.Name, cv.Values, ref)
					}
				}
			}
		}
	}
}

// TestAutoModeMatchesLegacySweep pins that the path RunSweepContext
// picks for the plain LCC curve (the union-find replay) reproduces the
// masked path's curve exactly.
func TestAutoModeMatchesLegacySweep(t *testing.T) {
	g, err := gen.BarabasiAlbertContext(context.Background(), 180, 2, 9)
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
	g, err := gen.BarabasiAlbertContext(context.Background(), 200, 2, 4)
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
	g, err := gen.BarabasiAlbertContext(context.Background(), 30, 2, 1)
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
