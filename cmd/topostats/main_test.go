package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/export"
	"repro/internal/scenario"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// defaults mirrors main's flag defaults for the non-traffic tests.
func defaults(in string) runConfig {
	return runConfig{in: in, seed: 1, sites: 16, capacity: 1}
}

const tinyJSON = `{
	"name": "tiny",
	"nodes": [{"id": 0}, {"id": 1}, {"id": 2}],
	"edges": [{"u": 0, "v": 1, "weight": 1}, {"u": 1, "v": 2, "weight": 1}]
}`

func TestRunValidJSON(t *testing.T) {
	p := write(t, "topo.json", tinyJSON)
	var b strings.Builder
	if err := run(defaults(p), nil, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"topology: tiny", "nodes: 3", "edges: 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCorruptInputsFailWithoutOutput(t *testing.T) {
	cases := []struct {
		name    string
		adj     bool
		content string
	}{
		{"truncated.json", false, `{"name": "x", "nodes": [{"id": 0}`},
		{"notjson.json", false, "certainly not json"},
		{"trailing.json", false, `{"name": "x", "nodes": [{"id": 0}], "edges": []} trailing garbage`},
		{"badedge.json", false, `{"name": "x", "nodes": [{"id": 0}], "edges": [{"u": 0, "v": 9}]}`},
		{"sparseids.json", false, `{"name": "x", "nodes": [{"id": 0}, {"id": 5}], "edges": []}`},
		{"empty.json", false, `{"name": "x", "nodes": [], "edges": []}`},
		{"badline.txt", true, "0 1 1.0\nnot an edge\n"},
		{"selfloop.txt", true, "3 3\n"},
		{"empty.txt", true, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := write(t, tc.name, tc.content)
			var b strings.Builder
			cfg := defaults(p)
			cfg.adj = tc.adj
			err := run(cfg, nil, &b)
			if err == nil {
				t.Fatalf("corrupt input %q accepted", tc.name)
			}
			if b.Len() != 0 {
				t.Fatalf("corrupt input %q produced partial output:\n%s", tc.name, b.String())
			}
		})
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run(defaults(filepath.Join(t.TempDir(), "nope.json")), nil, nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunMetricSelection(t *testing.T) {
	p := write(t, "topo.json", tinyJSON)
	var b strings.Builder
	cfg := defaults(p)
	cfg.metrics = "clustering,mean-degree,expansion"
	cfg.mparams = []string{"expansion.maxh=2"}
	err := run(cfg, nil, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Metric lines appear after the 3 header lines, in selection order.
	if len(lines) != 6 {
		t.Fatalf("want 6 output lines, got %d:\n%s", len(lines), out)
	}
	for i, prefix := range []string{"clustering: ", "mean-degree: ", "expansion: "} {
		if !strings.HasPrefix(lines[3+i], prefix) {
			t.Errorf("line %d = %q, want prefix %q", 3+i, lines[3+i], prefix)
		}
	}
	// A path of 3 nodes has mean degree 4/3.
	if !strings.HasPrefix(lines[4], "mean-degree: 1.333333") {
		t.Errorf("mean-degree line = %q", lines[4])
	}
	if !strings.Contains(lines[5], "series=") {
		t.Errorf("expansion line missing series: %q", lines[5])
	}
}

// TestRunTrafficMetrics drives the -traffic path: a demand model from
// the traffic registry feeds the CapTraffic metrics, with unprovisioned
// edges defaulted to unit capacity.
func TestRunTrafficMetrics(t *testing.T) {
	p := write(t, "topo.json", tinyJSON)
	var b strings.Builder
	cfg := defaults(p)
	cfg.metrics = "throughput,jain,delivered-frac,max-utilization"
	cfg.traffic = "gravity"
	cfg.tparams = []string{"gravity.exponent=0"}
	cfg.sites = 3
	err := run(cfg, nil, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "traffic: gravity (3 demands over 3 sites)") {
		t.Errorf("missing traffic header:\n%s", out)
	}
	for _, prefix := range []string{"throughput: ", "jain: ", "delivered-frac: ", "max-utilization: "} {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, prefix) {
				found = true
				if strings.HasPrefix(line, prefix+"0.000000") && prefix != "max-utilization: " {
					t.Errorf("%s evaluated to zero on a unit-capacity path:\n%s", prefix, out)
				}
			}
		}
		if !found {
			t.Errorf("output missing %q line:\n%s", prefix, out)
		}
	}
}

func TestRunTrafficErrors(t *testing.T) {
	p := write(t, "topo.json", tinyJSON)
	cases := []runConfig{
		func() runConfig { c := defaults(p); c.traffic = "gravity"; return c }(), // -traffic without -metrics
		func() runConfig {
			c := defaults(p)
			c.metrics = "throughput"
			c.traffic = "nope"
			return c
		}(),
		func() runConfig {
			c := defaults(p)
			c.metrics = "throughput"
			c.traffic = "gravity,uniform"
			return c
		}(),
		func() runConfig {
			c := defaults(p)
			c.metrics = "throughput"
			c.traffic = "gravity"
			c.tparams = []string{"gravity.bogus=1"}
			return c
		}(),
		func() runConfig { c := defaults(p); c.tparams = []string{"gravity.scale=1"}; return c }(), // -tparam without -traffic
		func() runConfig { c := defaults(p); c.metrics = "throughput"; return c }(),                // CapTraffic metric without -traffic
	}
	for i, cfg := range cases {
		var b strings.Builder
		if err := run(cfg, nil, &b); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if b.Len() != 0 {
			t.Errorf("case %d produced partial output", i)
		}
	}
}

func TestRunMetricSelectionErrors(t *testing.T) {
	p := write(t, "topo.json", tinyJSON)
	cases := []struct {
		metrics string
		params  []string
	}{
		{"nope", nil},
		{"clustering,clustering", nil},
		{"clustering", []string{"clustering.bogus=1"}},
		{"clustering", []string{"expansion.maxh=2"}}, // names a metric outside the set
		{"clustering", []string{"garbage"}},
		{"", []string{"clustering.x=1"}}, // -param without -metrics
	}
	for _, tc := range cases {
		var b strings.Builder
		cfg := defaults(p)
		cfg.metrics = tc.metrics
		cfg.mparams = tc.params
		if err := run(cfg, nil, &b); err == nil {
			t.Errorf("metrics=%q params=%v accepted", tc.metrics, tc.params)
		}
		if b.Len() != 0 {
			t.Errorf("metrics=%q params=%v produced partial output", tc.metrics, tc.params)
		}
	}
}

func TestListMetricsSortedAndComplete(t *testing.T) {
	var b strings.Builder
	listMetrics(&b)
	out := b.String()
	metricSection, trafficSection, found := strings.Cut(out, "traffic models (-traffic):")
	if !found {
		t.Fatalf("-list missing the traffic-model section:\n%s", out)
	}
	sectionNames := func(s string) []string {
		var names []string
		for _, line := range strings.Split(s, "\n") {
			if line != "" && !strings.HasPrefix(line, " ") {
				names = append(names, line)
			}
		}
		return names
	}
	names := sectionNames(metricSection)
	if len(names) < 10 {
		t.Fatalf("suspiciously few metrics listed (%d):\n%s", len(names), out)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("-list metrics not sorted: %v", names)
	}
	tnames := sectionNames(trafficSection)
	if !sort.StringsAreSorted(tnames) {
		t.Fatalf("-list traffic models not sorted: %v", tnames)
	}
	for _, want := range []string{"expansion", "resilience", "clustering", "lcc", "spectral-gap",
		"throughput", "max-utilization", "jain", "delivered-frac"} {
		if !strings.Contains(metricSection, want+"\n") {
			t.Errorf("-list missing metric %q:\n%s", want, out)
		}
	}
	for _, want := range []string{"gravity", "uniform", "zipf-hotspot", "bimodal", "single-epicenter"} {
		if !strings.Contains(trafficSection, want+"\n") {
			t.Errorf("-list missing traffic model %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "-param expansion.maxh=<int>") {
		t.Errorf("-list missing parameter lines:\n%s", out)
	}
	if !strings.Contains(out, "-tparam gravity.exponent=<float>") {
		t.Errorf("-list missing traffic parameter lines:\n%s", out)
	}
}

func TestCCDFConflictsWithMetricSelection(t *testing.T) {
	p := write(t, "topo.json", tinyJSON)
	var b strings.Builder
	cfg := defaults(p)
	cfg.ccdf = true
	cfg.metrics = "clustering"
	if err := run(cfg, nil, &b); err == nil {
		t.Fatal("-ccdf with -metrics accepted")
	}
	if b.Len() != 0 {
		t.Fatal("conflicting flags produced partial output")
	}
}

// TestListGolden pins the -list output byte for byte. An intended change
// to a registration is recorded by copying the new output over
// testdata/list.golden.
func TestListGolden(t *testing.T) {
	var b strings.Builder
	listMetrics(&b)
	want, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("-list output differs from testdata/list.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// reportCases are the topologies TestReportGolden reports on: a
// connected mesh, a disconnected random graph, a disconnected geometric
// graph, a tree, and one graph above the 2,000-node hop-diameter guard.
var reportCases = []struct {
	name   string
	model  string
	params scenario.Params
}{
	{"hot-400", "hot", scenario.Params{"n": 400, "links": 2, "seed": 3}},
	{"er-600-disconnected", "er-gnp", scenario.Params{"n": 600, "p": 0.004, "seed": 3}},
	{"rgg-400-disconnected", "rgg", scenario.Params{"n": 400, "radius": 0.05, "seed": 3}},
	{"mmp-400-tree", "mmp", scenario.Params{"n": 400, "seed": 3}},
	{"ba-2500", "ba", scenario.Params{"n": 2500, "m": 2, "seed": 3}},
}

// TestReportGolden pins the default report (no -metrics) byte for byte
// on reportCases, each generated, written as JSON and read back the way
// `topogen | topostats` does. An intended output change is recorded by
// copying the new output over testdata/report.golden.
func TestReportGolden(t *testing.T) {
	var b strings.Builder
	for _, tc := range reportCases {
		g, err := scenario.Default().GenerateByName(context.Background(), tc.model, tc.params)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var doc bytes.Buffer
		if err := export.WriteJSON(&doc, g, tc.name); err != nil {
			t.Fatal(err)
		}
		p := write(t, tc.name+".json", doc.String())
		if err := run(defaults(p), nil, &b); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b.WriteString("\n")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "report.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("report differs from testdata/report.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
