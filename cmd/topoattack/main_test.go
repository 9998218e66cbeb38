package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attackreg"
	"repro/internal/errs"
)

func baseConfig() config {
	return config{
		model: "ba", n: 120, seed: 1, attacks: "degree,random-failure",
		fracs: "0.05,0.2,1", metrics: "lcc", trials: 2,
		workers: 2, format: "table", out: "-",
	}
}

func runToFile(t *testing.T, cfg config) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out.txt")
	cfg.out = out
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunTable(t *testing.T) {
	cfg := baseConfig()
	cfg.gap = true
	text := runToFile(t, cfg)
	for _, want := range []string{"topoattack ba: 120 nodes", "degree", "random-failure", "@0.05", "@1", "gap", "lcc"} {
		if !strings.Contains(text, want) {
			t.Errorf("table output missing %q:\n%s", want, text)
		}
	}
}

func TestRunJSONAndAttackParams(t *testing.T) {
	cfg := baseConfig()
	cfg.model = "waxman"
	cfg.attacks = "geographic"
	cfg.aparams = []string{"geographic.x=0.1", "geographic.y=0.9"}
	cfg.format = "json"
	text := runToFile(t, cfg)
	for _, want := range []string{`"attack": "geographic"`, `"target": "nodes"`, `"curves"`, `"x": 0.1`} {
		if !strings.Contains(text, want) {
			t.Errorf("json output missing %q:\n%s", want, text)
		}
	}
}

// TestModesAgreeAndWorkersDeterministic pins the CLI-visible halves of
// the engine contract: the lcc curves are identical whichever
// evaluation path the metric set picks (the union-find replay for
// "lcc", masked re-evaluation for "lcc,mean-degree"), and output bytes
// are identical for any two worker counts.
func TestModesAgreeAndWorkersDeterministic(t *testing.T) {
	cfg := baseConfig()
	cfg.attacks = "degree,random-failure,preferential"
	cfg.format = "json"
	lccCurves := func(cfg config) [][]float64 {
		var results []attackResult
		if err := json.Unmarshal([]byte(runToFile(t, cfg)), &results); err != nil {
			t.Fatal(err)
		}
		var out [][]float64
		for _, r := range results {
			out = append(out, r.Curves[0].Values)
		}
		return out
	}
	replay := lccCurves(cfg)
	cfg.metrics = "lcc,mean-degree"
	masked := lccCurves(cfg)
	if !reflect.DeepEqual(replay, masked) {
		t.Fatalf("lcc curves differ between paths:\nreplay: %v\nmasked: %v", replay, masked)
	}

	cfg = baseConfig()
	cfg.attacks = "degree,random-failure,random-edge,preferential"
	cfg.workers = 1
	one := runToFile(t, cfg)
	cfg.workers = 8
	eight := runToFile(t, cfg)
	if one != eight {
		t.Fatalf("workers=1 vs 8 output differs:\n--- 1 ---\n%s\n--- 8 ---\n%s", one, eight)
	}
}

func TestRunMultiMetricMasked(t *testing.T) {
	cfg := baseConfig()
	cfg.attacks = "degree"
	cfg.metrics = "lcc,mean-degree"
	text := runToFile(t, cfg)
	if !strings.Contains(text, "mean-degree") {
		t.Fatalf("multi-metric output missing mean-degree:\n%s", text)
	}
}

// TestGapWithoutLCCMetric pins the -gap fallback: a metric set that
// never traced lcc still reports a gap (via one extra lcc sweep), for
// edge-targeted attacks against the random-edge baseline included.
func TestGapWithoutLCCMetric(t *testing.T) {
	cfg := baseConfig()
	cfg.attacks = "degree,bottleneck-edge"
	cfg.metrics = "lcc" // edge attacks allow only lcc; keep both rows comparable
	cfg.gap = true
	text := runToFile(t, cfg)
	if !strings.Contains(text, "gap") {
		t.Fatalf("gap column missing:\n%s", text)
	}
	cfg = baseConfig()
	cfg.attacks = "degree"
	cfg.metrics = "mean-degree"
	cfg.gap = true
	text = runToFile(t, cfg)
	if !strings.Contains(text, "mean-degree") || !strings.Contains(text, "gap") {
		t.Fatalf("non-lcc gap output malformed:\n%s", text)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := []func(*config){
		func(c *config) { c.attacks = "nope" },
		func(c *config) { c.attacks = "degree,," },
		func(c *config) { c.aparams = []string{"geographic.x=1"} }, // outside selected set
		func(c *config) { c.fracs = "0.1,abc" },
		func(c *config) { c.fracs = "1.5" },
		func(c *config) { c.model = "nope" },
		func(c *config) { c.gparams = []string{"bogus=1"} },
		func(c *config) { c.metrics = "nope" },
		func(c *config) { c.metrics = "lcc,mean-degree"; c.attacks = "random-edge" },
		func(c *config) { c.format = "yaml" },
	}
	for i, mutate := range cases {
		cfg := baseConfig()
		mutate(&cfg)
		if err := run(context.Background(), cfg); !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("case %d: got %v, want ErrBadParam", i, err)
		}
	}
}

func TestListAttacksSortedAndComplete(t *testing.T) {
	var b strings.Builder
	listAttacks(&b)
	out := b.String()
	var listed []string
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, " ") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		listed = append(listed, name)
	}
	names := attackreg.Names()
	if len(listed) != len(names) {
		t.Fatalf("-list shows %d attacks, registry has %d", len(listed), len(names))
	}
	for i := range names {
		if listed[i] != names[i] {
			t.Fatalf("-list order %v != registry order %v", listed, names)
		}
	}
	for i := 1; i < len(listed); i++ {
		if listed[i] < listed[i-1] {
			t.Fatalf("-list output not sorted: %v", listed)
		}
	}
}

// TestListGolden pins the -list output byte for byte. An intended change
// to a registration is recorded by copying the new output over
// testdata/list.golden.
func TestListGolden(t *testing.T) {
	var b strings.Builder
	listAttacks(&b)
	want, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("-list output differs from testdata/list.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
