package metricreg

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/params"
	"repro/internal/rng"
)

// ladder builds a connected test graph: a path 0-1-...-n-1 plus chords
// every k nodes, deterministic and non-trivial for every metric.
func ladder(n, k int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{})
	}
	for i := 1; i < n; i++ {
		g.AddEdge(graph.Edge{U: i - 1, V: i, Weight: 1})
	}
	for i := k; i < n; i += k {
		g.AddEdge(graph.Edge{U: i - k, V: i, Weight: 1})
	}
	return g
}

func TestNamesSorted(t *testing.T) {
	names := Default().Names()
	if len(names) < 10 {
		t.Fatalf("suspiciously few built-in metrics: %v", names)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Default().Names() not sorted: %v", names)
	}
	for _, want := range []string{"expansion", "resilience", "distortion", "hierarchy-depth",
		"spectral-gap", "clustering", "assortativity", "lcc", "mean-degree", "diameter"} {
		if _, err := Lookup(want); err != nil {
			t.Errorf("built-in metric %q missing: %v", want, err)
		}
	}
}

func TestRegistryRejectsDuplicatesAndUnknown(t *testing.T) {
	r := NewRegistry()
	m := &FuncMetric{MetricName: "x", NewFn: func(params.Params, int64) Accumulator { return &sizeAcc{} }}
	if err := r.Register(m); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(m); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("duplicate registration gave %v", err)
	}
	if err := r.Register(&FuncMetric{}); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("empty name gave %v", err)
	}
	if _, err := r.Lookup("nope"); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("unknown lookup gave %v", err)
	}
}

func TestEvaluateValidation(t *testing.T) {
	g := ladder(30, 5)
	src := NewSource(g, nil)
	ctx := context.Background()
	cases := []struct {
		name string
		src  *Source
		set  []Selection
	}{
		{"nil source", nil, []Selection{{Name: "nodes"}}},
		{"empty set", src, nil},
		{"unknown metric", src, []Selection{{Name: "nope"}}},
		{"duplicate", src, []Selection{{Name: "nodes"}, {Name: "nodes"}}},
		{"bad param name", src, []Selection{{Name: "expansion", Params: params.Params{"bogus": 1}}}},
		{"bad param value", src, []Selection{{Name: "expansion", Params: params.Params{"maxh": 0}}}},
		{"non-integral", src, []Selection{{Name: "expansion", Params: params.Params{"maxh": 2.5}}}},
		{"graph metric on CSR-only source", NewSource(nil, g.Freeze()), []Selection{{Name: "distortion"}}},
	}
	for _, tc := range cases {
		if _, err := Default().Evaluate(ctx, tc.src, tc.set, Options{}); !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("%s: got %v, want ErrBadParam", tc.name, err)
		}
	}
}

func TestEvaluateWorkerDeterminism(t *testing.T) {
	g := ladder(220, 7)
	set := []Selection{
		{Name: "expansion", Params: params.Params{"maxh": 4, "sources": 40}},
		{Name: "avg-hop-length", Params: params.Params{"sources": 60}},
		{Name: "diameter"},
		{Name: "resilience", Params: params.Params{"steps": 6, "trials": 4}},
		{Name: "distortion", Params: params.Params{"sample": 150}},
		{Name: "clustering"},
		{Name: "assortativity"},
		{Name: "spectral-gap", Params: params.Params{"iters": 80}},
		{Name: "mean-degree"},
		{Name: "degree-cv"},
	}
	one, err := Default().Evaluate(context.Background(), NewSource(g, nil), set, Options{Workers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Default().Evaluate(context.Background(), NewSource(g, nil), set, Options{Workers: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("Workers=1 vs Workers=8 diverged:\n%v\nvs\n%v", one, eight)
	}
}

func TestFusedSweepSharesTraversals(t *testing.T) {
	g := ladder(150, 6)
	n := g.NumNodes()
	// Three BFS-consuming metrics over all sources: fused they cost n
	// traversals, independently 3n.
	set := []Selection{
		{Name: "expansion", Params: params.Params{"sources": 0}},
		{Name: "avg-hop-length"},
		{Name: "diameter"},
	}
	var fused EvalStats
	if _, err := Default().Evaluate(context.Background(), NewSource(g, nil), set, Options{Stats: &fused, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if fused.BFSRuns != n {
		t.Fatalf("fused sweep ran %d BFS, want %d", fused.BFSRuns, n)
	}
	if fused.BFSRequested != 3*n {
		t.Fatalf("requested = %d, want %d", fused.BFSRequested, 3*n)
	}
	independent := 0
	for _, sel := range set {
		var st EvalStats
		if _, err := Default().Evaluate(context.Background(), NewSource(g, nil), []Selection{sel}, Options{Stats: &st, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		independent += st.BFSRuns
	}
	if independent != 3*n {
		t.Fatalf("independent evaluation ran %d BFS, want %d", independent, 3*n)
	}
	if fused.BFSRuns >= independent {
		t.Fatalf("fusion saved nothing: fused %d vs independent %d", fused.BFSRuns, independent)
	}
}

func TestFusedMatchesIndependent(t *testing.T) {
	g := ladder(180, 9)
	set := []Selection{
		{Name: "expansion", Params: params.Params{"maxh": 3, "sources": 25}},
		{Name: "avg-hop-length", Params: params.Params{"sources": 70}},
		{Name: "diameter"},
	}
	fused, err := Default().Evaluate(context.Background(), NewSource(g, nil), set, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range set {
		solo, err := Default().Evaluate(context.Background(), NewSource(g, nil), []Selection{sel}, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fused[sel.Name], solo[sel.Name]) {
			t.Errorf("%s: fused %v != independent %v", sel.Name, fused[sel.Name], solo[sel.Name])
		}
	}
}

func TestEvaluateCancellation(t *testing.T) {
	g := ladder(300, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Default().Evaluate(ctx, NewSource(g, nil), []Selection{{Name: "resilience"}}, Options{})
	if !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("canceled evaluation gave %v, want ErrCanceled", err)
	}
}

func TestMaskedEvaluation(t *testing.T) {
	g := ladder(40, 40) // pure path: removing the middle halves the LCC
	c := g.Freeze()
	for _, name := range []string{"lcc", "mean-degree"} {
		m, resolved, err := Default().Resolve(Selection{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		if m.Caps()&CapMasked == 0 {
			t.Fatalf("%s lost CapMasked", name)
		}
		acc, ok := m.New(resolved, 1).(MaskedAccumulator)
		if !ok {
			t.Fatalf("%s accumulator not masked-capable", name)
		}
		ws := graph.GetWorkspace(40)
		defer ws.Release()
		full := acc.EvaluateMasked(ws, c, make([]bool, 40))
		removed := make([]bool, 40)
		removed[20] = true
		cut := acc.EvaluateMasked(ws, c, removed)
		if cut >= full {
			t.Errorf("%s: masked value %v not below unmasked %v", name, cut, full)
		}
	}
}

func TestValueSanityOnPath(t *testing.T) {
	g := ladder(64, 64) // path graph: known structure
	vals, err := Default().Evaluate(context.Background(), NewSource(g, nil), []Selection{
		{Name: "diameter"},
		{Name: "lcc"},
		{Name: "nodes"},
		{Name: "edges"},
		{Name: "max-degree"},
		{Name: "distortion"},
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := vals["diameter"].Scalar; got != 63 {
		t.Errorf("path diameter = %v, want 63", got)
	}
	if got := vals["lcc"].Scalar; got != 1 {
		t.Errorf("connected lcc = %v, want 1", got)
	}
	if got := vals["nodes"].Scalar; got != 64 {
		t.Errorf("nodes = %v", got)
	}
	if got := vals["edges"].Scalar; got != 63 {
		t.Errorf("edges = %v", got)
	}
	if got := vals["max-degree"].Scalar; got != 2 {
		t.Errorf("path max degree = %v", got)
	}
	if got := vals["distortion"].Scalar; got != 1 {
		t.Errorf("tree distortion = %v, want exactly 1", got)
	}
}

func TestSourceConnectedCSROnly(t *testing.T) {
	g := ladder(10, 3)
	if !NewSource(nil, g.Freeze()).Connected() {
		t.Fatal("connected graph reported disconnected from CSR")
	}
	d := graph.New(2)
	d.AddNode(graph.Node{})
	d.AddNode(graph.Node{})
	if NewSource(nil, d.Freeze()).Connected() {
		t.Fatal("disconnected graph reported connected from CSR")
	}
	if NewSource(nil, graph.New(0).Freeze()).Connected() != true {
		t.Fatal("empty graph should count as connected (matching graph.IsConnected)")
	}
}

// oracleGraphs are the shapes the diameter and connectivity oracles run
// on: a path, a star, a random connected graph, two components beside
// an isolated node, a single node and the empty graph.
func oracleGraphs() map[string]*graph.Graph {
	build := func(n int, edges [][2]int) *graph.Graph {
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode(graph.Node{})
		}
		for _, e := range edges {
			g.AddEdge(graph.Edge{U: e[0], V: e[1], Weight: float64(e[0]) + 0.5, Cable: -1})
		}
		return g
	}
	var path, star, random [][2]int
	for i := 1; i < 7; i++ {
		path = append(path, [2]int{i - 1, i})
	}
	for i := 1; i < 10; i++ {
		star = append(star, [2]int{0, i})
	}
	r := rng.New(21)
	for i := 1; i < 90; i++ {
		random = append(random, [2]int{r.Intn(i), i})
	}
	for len(random) < 89+150 {
		if u, v := r.Intn(90), r.Intn(90); u != v {
			random = append(random, [2]int{u, v})
		}
	}
	return map[string]*graph.Graph{
		"path-7":  build(7, path),
		"star-10": build(10, star),
		"random":  build(90, random),
		"two-components+isolated": build(9, [][2]int{
			{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7},
		}),
		"single": build(1, nil),
		"empty":  build(0, nil),
	}
}

// adjacencyDiameter is the all-sources oracle for the diameter metric: a
// FIFO BFS from every node over g's adjacency lists, keeping the largest
// finite hop distance. Unreachable pairs are ignored, so a graph below
// two nodes has diameter 0.
func adjacencyDiameter(g *graph.Graph) int {
	best := 0
	dist := make([]int, g.NumNodes())
	for s := range dist {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			best = max(best, dist[u])
			g.Neighbors(u, func(v, _ int) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			})
		}
	}
	return best
}

// TestDiameterMatchesAllSourcesBFS holds the registry's diameter at its
// default sources 0 (every node) to the adjacency BFS from every node.
func TestDiameterMatchesAllSourcesBFS(t *testing.T) {
	fixed := map[string]int{"path-7": 6, "star-10": 2, "two-components+isolated": 3, "single": 0, "empty": 0}
	for name, g := range oracleGraphs() {
		want := adjacencyDiameter(g)
		if w, ok := fixed[name]; ok && w != want {
			t.Fatalf("%s: oracle diameter %d, want %d", name, want, w)
		}
		vals, err := Evaluate(context.Background(), NewSource(g, nil), []Selection{{Name: "diameter"}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := vals["diameter"].Scalar; got != float64(want) {
			t.Errorf("%s: diameter = %v, all-sources BFS %d", name, got, want)
		}
	}
}

// TestSourceConnectedMatchesIsConnected holds the Source's connectivity
// bit, on graph-plus-CSR, CSR-only and graph-only sources, to the
// builder graph's component count.
func TestSourceConnectedMatchesIsConnected(t *testing.T) {
	for name, g := range oracleGraphs() {
		want := g.IsConnected()
		for kind, src := range map[string]*Source{
			"graph+csr":  NewSource(g, g.Freeze()),
			"csr-only":   NewSource(nil, g.Freeze()),
			"graph-only": NewSource(g, nil),
		} {
			if got := src.Connected(); got != want {
				t.Errorf("%s %s: Connected = %v, IsConnected %v", name, kind, got, want)
			}
		}
	}
}

func TestParseSelections(t *testing.T) {
	set, err := Default().ParseSelections("expansion,clustering", []string{"expansion.maxh=5", "expansion.sources=10"})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0].Name != "expansion" || set[1].Name != "clustering" {
		t.Fatalf("parsed %+v", set)
	}
	if set[0].Params["maxh"] != 5 || set[0].Params["sources"] != 10 {
		t.Fatalf("params not applied: %+v", set[0])
	}
	bad := []struct {
		names string
		kvs   []string
	}{
		{"", nil},
		{"a,,b", nil},
		{"a,a", nil},
		{"expansion", []string{"maxh=5"}}, // missing metric prefix
		{"expansion", []string{"clustering.x=1"}},   // outside the set
		{"expansion", []string{"expansion.maxh=x"}}, // non-numeric
		{"expansion", []string{".maxh=1"}},          // empty metric
		{"expansion", []string{"expansion.=1"}},     // empty param
	}
	for _, tc := range bad {
		if _, err := Default().ParseSelections(tc.names, tc.kvs); !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("ParseSelections(%q, %v) gave %v, want ErrBadParam", tc.names, tc.kvs, err)
		}
	}
}

func TestFormatMetricsListsParams(t *testing.T) {
	var b strings.Builder
	Default().Format(&b, "-param ", true)
	out := b.String()
	if !strings.Contains(out, "resilience\n") || !strings.Contains(out, "-param resilience.trials=<int>") {
		t.Fatalf("Format output incomplete:\n%s", out)
	}
}
