package attackreg

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/params"
)

func schedule(t *testing.T, name string, g *graph.Graph, p params.Params, seed int64) []int {
	t.Helper()
	a, resolved, err := Default().Resolve(Selection{Name: name, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	order, err := a.Schedule(context.Background(), g, resolved, seed)
	if err != nil {
		t.Fatal(err)
	}
	return order
}

func checkPermutation(t *testing.T, order []int, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("schedule length %d, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("schedule is not a permutation: %v", order)
		}
		seen[v] = true
	}
}

func TestBuiltinsRegisteredAndSorted(t *testing.T) {
	names := Names()
	want := []string{"adaptive-degree", "betweenness", "bottleneck-edge", "degree",
		"geographic", "preferential", "random-edge", "random-failure"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Errorf("builtin %q not registered (have %v)", w, names)
		}
	}
	if !sortedStrings(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

func TestAliasesResolve(t *testing.T) {
	for alias, canonical := range map[string]string{
		"":                       "random-failure",
		"random":                 "random-failure",
		"degree-attack":          "degree",
		"betweenness-attack":     "betweenness",
		"adaptive-degree-attack": "adaptive-degree",
	} {
		a, err := Lookup(alias)
		if err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
		if a.Name() != canonical {
			t.Fatalf("alias %q resolved to %q, want %q", alias, a.Name(), canonical)
		}
	}
	if _, err := Lookup("nope"); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("unknown attack gave %v, want ErrBadParam", err)
	}
}

// TestTieBreakIsStableByNodeID is the regression test for score ties:
// on a k-regular topology every node has the same degree (and, by
// symmetry on a cycle, the same betweenness), so the schedule must be
// exactly ascending node ids — any dependence on sort internals or
// input permutation would scramble it.
func TestTieBreakIsStableByNodeID(t *testing.T) {
	n := 64
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{})
	}
	for i := 0; i < n; i++ {
		g.AddEdge(graph.Edge{U: i, V: (i + 1) % n, Weight: 1})
	}
	for _, name := range []string{"degree", "betweenness"} {
		order := schedule(t, name, g, nil, 1)
		for i, v := range order {
			if v != i {
				t.Fatalf("%s: tied scores not ordered by node id: order[%d] = %d", name, i, v)
			}
		}
	}
	// Edge scores tie on the cycle too: bottleneck-edge must yield
	// ascending edge ids.
	order := schedule(t, "bottleneck-edge", g, nil, 1)
	for i, e := range order {
		if e != i {
			t.Fatalf("bottleneck-edge: tied scores not ordered by edge id: order[%d] = %d", i, e)
		}
	}
}

func TestDegreeAttackOrdersHubsFirst(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	deg := g.Degrees()
	order := schedule(t, "degree", g, nil, 1)
	checkPermutation(t, order, 200)
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if deg[a] < deg[b] || (deg[a] == deg[b] && a > b) {
			t.Fatalf("order not (degree desc, id asc) at %d: node %d (deg %d) before %d (deg %d)",
				i, a, deg[a], b, deg[b])
		}
	}
}

func TestRandomSchedulesArePermutationsAndSeedDeterministic(t *testing.T) {
	g, err := gen.BarabasiAlbert(120, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		total int
	}{
		{"random-failure", g.NumNodes()},
		{"random-edge", g.NumEdges()},
		{"preferential", g.NumNodes()},
	} {
		a := schedule(t, tc.name, g, nil, 42)
		checkPermutation(t, a, tc.total)
		b := schedule(t, tc.name, g, nil, 42)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different schedules", tc.name)
		}
		c := schedule(t, tc.name, g, nil, 43)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds produced identical schedules", tc.name)
		}
	}
}

func TestGeographicAttackRadiatesFromEpicenter(t *testing.T) {
	// Nodes on a line: epicenter at the left end must remove left-to-
	// right; at the right end, right-to-left.
	n := 10
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{X: float64(i), Y: 0})
	}
	for i := 1; i < n; i++ {
		g.AddEdge(graph.Edge{U: i - 1, V: i, Weight: 1})
	}
	left := schedule(t, "geographic", g, params.Params{"x": 0, "y": 0}, 1)
	for i, v := range left {
		if v != i {
			t.Fatalf("epicenter at left: order %v", left)
		}
	}
	right := schedule(t, "geographic", g, params.Params{"x": float64(n - 1), "y": 0}, 1)
	for i, v := range right {
		if v != n-1-i {
			t.Fatalf("epicenter at right: order %v", right)
		}
	}
}

func TestPreferentialBiasTowardHubs(t *testing.T) {
	// On a star, the hub carries nearly all the degree weight at high
	// alpha: it must land in the first few removals for most seeds.
	n := 50
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{})
	}
	for i := 1; i < n; i++ {
		g.AddEdge(graph.Edge{U: 0, V: i, Weight: 1})
	}
	early := 0
	for seed := int64(0); seed < 20; seed++ {
		order := schedule(t, "preferential", g, params.Params{"alpha": 4}, seed)
		for pos, v := range order {
			if v == 0 {
				if pos < n/5 {
					early++
				}
				break
			}
		}
	}
	if early < 15 {
		t.Fatalf("hub removed early in only %d/20 seeds under alpha=4", early)
	}
}

func TestBottleneckEdgeCutsBridgeFirst(t *testing.T) {
	// Two cliques joined by one bridge edge: the bridge carries all
	// cross-clique shortest paths, so it must top the schedule.
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		g.AddNode(graph.Node{})
	}
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(graph.Edge{U: u, V: v, Weight: 1})
		}
	}
	for u := 4; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			g.AddEdge(graph.Edge{U: u, V: v, Weight: 1})
		}
	}
	bridge := g.AddEdge(graph.Edge{U: 3, V: 4, Weight: 1})
	order := schedule(t, "bottleneck-edge", g, nil, 1)
	checkPermutation(t, order, g.NumEdges())
	if order[0] != bridge {
		t.Fatalf("bottleneck-edge removed edge %d first, want bridge %d", order[0], bridge)
	}
}

func TestResolveRejectsBadParams(t *testing.T) {
	if _, _, err := Default().Resolve(Selection{Name: "preferential", Params: params.Params{"nope": 1}}); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("unknown param gave %v, want ErrBadParam", err)
	}
	if _, _, err := Default().Resolve(Selection{Name: "preferential", Params: params.Params{"alpha": -1}}); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("out-of-bounds param gave %v, want ErrBadParam", err)
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	r := NewRegistry()
	a := &FuncAttack{AttackName: "x", Fn: nil}
	if err := r.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(a); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("duplicate gave %v, want ErrBadParam", err)
	}
	if err := r.Register(&FuncAttack{}); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("empty name gave %v, want ErrBadParam", err)
	}
}

func TestFormatAttacksListsParamsAndTraits(t *testing.T) {
	var b strings.Builder
	Default().Format(&b, "-param ", true)
	out := b.String()
	for _, want := range []string{
		"geographic  [nodes]",
		"-param geographic.x=<float>",
		"random-edge  [edges, randomized]",
		"adaptive-degree  [nodes, adaptive]",
		"preferential  [nodes, randomized]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestParseSelections(t *testing.T) {
	set, err := Default().ParseSelections("degree,geographic", []string{"geographic.x=0.2", "geographic.y=0.9"})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0].Name != "degree" || set[1].Name != "geographic" {
		t.Fatalf("set = %+v", set)
	}
	if set[1].Params["x"] != 0.2 || set[1].Params["y"] != 0.9 {
		t.Fatalf("params = %+v", set[1].Params)
	}
	// Aliases dedup against their canonical spelling, and a param
	// assignment reaches its attack through either spelling.
	if _, err := Default().ParseSelections("random,random-failure", nil); !errors.Is(err, errs.ErrBadParam) {
		t.Errorf("alias+canonical duplicate gave %v, want ErrBadParam", err)
	}
	set, err = Default().ParseSelections("degree-attack", []string{"degree.k=1"})
	if err != nil {
		t.Fatal(err)
	}
	if set[0].Params["k"] != 1 {
		t.Fatalf("cross-spelling param assignment lost: %+v", set)
	}
	for _, tc := range []struct{ names, kv string }{
		{"degree,,x", ""},
		{"degree", "geographic.x=1"},
		{"degree", "degree.=1"},
		{"degree", "notakv"},
		{"degree,degree", ""},
	} {
		kvs := []string{}
		if tc.kv != "" {
			kvs = append(kvs, tc.kv)
		}
		if _, err := Default().ParseSelections(tc.names, kvs); !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("ParseSelections(%q, %q) gave %v, want ErrBadParam", tc.names, tc.kv, err)
		}
	}
}

func TestScheduleHonorsCanceledContext(t *testing.T) {
	g, err := gen.BarabasiAlbert(80, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		a, resolved, err := Default().Resolve(Selection{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Schedule(ctx, g, resolved, 1); !errors.Is(err, errs.ErrCanceled) {
			t.Errorf("%s: canceled ctx gave %v, want ErrCanceled", name, err)
		}
	}
}
