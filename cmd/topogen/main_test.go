package main

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/scenario"
)

func smallParams() genParams {
	return genParams{
		n: 60, seed: 1, alpha: 8, links: 1, m: 2,
		p: 0.1, beta: 0.5, waxmanAlpha: 0.1, radius: 0.15,
		cities: 8, pops: 3, customers: 40, isps: 3,
	}
}

func TestGenerateAllModels(t *testing.T) {
	models := []string{
		"fkp", "hot", "mmp", "ring", "ba", "glp", "er",
		"waxman", "transitstub", "rgg", "isp", "internet",
	}
	for _, m := range models {
		m := m
		t.Run(m, func(t *testing.T) {
			g, err := generate(m, smallParams())
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			if g.NumNodes() == 0 {
				t.Fatalf("%s produced an empty graph", m)
			}
		})
	}
}

func TestGenerateRegistryOnlyModels(t *testing.T) {
	// Models with no dedicated convenience flags are still reachable:
	// generic flags map onto the parameters they declare, -param covers
	// the rest.
	gp := smallParams()
	for _, m := range []string{"inet", "configmodel", "er-gnm"} {
		g, err := generate(m, gp)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if g.NumNodes() == 0 {
			t.Fatalf("%s produced an empty graph", m)
		}
	}
}

func TestGenerateUnknownModel(t *testing.T) {
	_, err := generate("nope", smallParams())
	if !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("unknown model gave %v, want ErrBadParam", err)
	}
}

func TestGenerateISPProfitMode(t *testing.T) {
	gp := smallParams()
	gp.price = 0.5
	g, err := generate("isp", gp)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 {
		t.Fatal("profit-mode ISP empty")
	}
}

func TestGenerateWithPorts(t *testing.T) {
	gp := smallParams()
	gp.ports = 6
	g, err := generate("fkp", gp)
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() > 6 {
		t.Fatalf("port cap violated: %d", g.MaxDegree())
	}
	if _, err := generate("hot", gp); err != nil {
		t.Fatal(err)
	}
}

func TestParamOverridesWin(t *testing.T) {
	gp := smallParams()
	gp.overrides = scenario.Params{"n": 25}
	g, err := generate("ba", gp)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 25 {
		t.Fatalf("override ignored: %d nodes, want 25", g.NumNodes())
	}
}

func TestParamRejectsUnknownName(t *testing.T) {
	gp := smallParams()
	gp.overrides = scenario.Params{"bogus": 1}
	if _, err := generate("ba", gp); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("unknown -param gave %v, want ErrBadParam", err)
	}
}

func TestParamFlagParsing(t *testing.T) {
	p := paramFlags{}
	if err := p.Set("alpha=2.5"); err != nil {
		t.Fatal(err)
	}
	if p["alpha"] != 2.5 {
		t.Fatalf("parsed %v", p)
	}
	for _, bad := range []string{"alpha", "=1", "alpha=x"} {
		if err := p.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

func TestListModels(t *testing.T) {
	var b strings.Builder
	listModels(&b)
	out := b.String()
	for _, m := range []string{"fkp", "internet", "configmodel"} {
		if !strings.Contains(out, m+"\n") {
			t.Errorf("-list output missing %q:\n%s", m, out)
		}
	}
	if !strings.Contains(out, "-param seed=<int>") {
		t.Errorf("-list output missing parameter lines:\n%s", out)
	}
}

func TestListModelsSorted(t *testing.T) {
	var b strings.Builder
	listModels(&b)
	var names []string
	for _, line := range strings.Split(b.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, " ") {
			names = append(names, line)
		}
	}
	if len(names) < 10 {
		t.Fatalf("suspiciously few models listed: %v", names)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("-list output not sorted: %v", names)
	}
}

// TestListGolden pins the -list output byte for byte. An intended change
// to a registration is recorded by copying the new output over
// testdata/list.golden.
func TestListGolden(t *testing.T) {
	var b strings.Builder
	listModels(&b)
	want, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("-list output differs from testdata/list.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHOTPortCapInfeasible runs `topogen -model hot -n 1000 -links 3
// -param ports=3`, whose arrivals fill every router's ports from the
// fourth arrival on: it must fail with errs.ErrInfeasible instead of
// growing routers past the cap.
func TestHOTPortCapInfeasible(t *testing.T) {
	gp := smallParams()
	gp.n, gp.links = 1000, 3
	gp.overrides = scenario.Params{"ports": 3}
	if _, err := generate("hot", gp); !errors.Is(err, errs.ErrInfeasible) {
		t.Fatalf("hot with 3 links on 3-port routers gave %v, want ErrInfeasible", err)
	}
}
