package scenario

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/graph"
)

// smallParams returns per-model overrides small enough for fast tests.
func smallParams(model string) Params {
	switch model {
	case "transitstub":
		return Params{"domains": 2, "transitsize": 2, "stubs": 1, "stubsize": 3}
	case "isp":
		return Params{"cities": 8, "pops": 3, "customers": 40}
	case "internet":
		return Params{"cities": 8, "pops": 2, "customers": 20, "isps": 2}
	case "configmodel":
		return Params{"n": 30, "degree": 2}
	case "er-gnm":
		return Params{"n": 60, "m": 90}
	case "mmp", "ring":
		return Params{"n": 50}
	default:
		return Params{"n": 60}
	}
}

func TestRegistryHasAllModels(t *testing.T) {
	want := []string{
		"fkp", "hot", "mmp", "ring", "ba", "glp", "er-gnp", "er-gnm",
		"waxman", "transitstub", "rgg", "configmodel", "inet", "isp", "internet",
	}
	names := map[string]bool{}
	for _, n := range Default().Names() {
		names[n] = true
	}
	for _, w := range want {
		if !names[w] {
			t.Errorf("model %q missing from registry (have %v)", w, Default().Names())
		}
	}
	if len(Default().Names()) < 14 {
		t.Fatalf("registry holds %d models, want >= 14", len(Default().Names()))
	}
}

func TestAllGeneratorsGenerate(t *testing.T) {
	for _, name := range Default().Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, err := Default().GenerateByName(context.Background(), name, smallParams(name))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if g.NumNodes() == 0 {
				t.Fatalf("%s produced an empty graph", name)
			}
		})
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, name := range []string{"fkp", "ba", "waxman", "isp"} {
		p := smallParams(name)
		a, err := Default().GenerateByName(context.Background(), name, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Default().GenerateByName(context.Background(), name, p)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
			t.Fatalf("%s not deterministic: %d/%d nodes, %d/%d edges",
				name, a.NumNodes(), b.NumNodes(), a.NumEdges(), b.NumEdges())
		}
	}
}

func TestUnknownModelIsBadParam(t *testing.T) {
	_, err := Default().GenerateByName(context.Background(), "nope", nil)
	if !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("unknown model gave %v, want ErrBadParam", err)
	}
}

func TestUnknownParamIsBadParam(t *testing.T) {
	_, err := Default().GenerateByName(context.Background(), "fkp", Params{"bogus": 1})
	if !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("unknown param gave %v, want ErrBadParam", err)
	}
}

func TestNonIntegralIntParamIsBadParam(t *testing.T) {
	_, err := Default().GenerateByName(context.Background(), "fkp", Params{"n": 10.5})
	if !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("non-integral int gave %v, want ErrBadParam", err)
	}
}

func TestOutOfRangeParamIsBadParam(t *testing.T) {
	_, err := Default().GenerateByName(context.Background(), "er-gnp", Params{"p": 1.5})
	if !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("out-of-range param gave %v, want ErrBadParam", err)
	}
}

func TestResolveFillsDefaults(t *testing.T) {
	g, err := Lookup("fkp")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Resolve(g, Params{"n": 50})
	if err != nil {
		t.Fatal(err)
	}
	if p["n"] != 50 {
		t.Fatalf("override lost: n=%v", p["n"])
	}
	if p["alpha"] != 8 || p["seed"] != 1 {
		t.Fatalf("defaults not filled: %v", p)
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	mk := func(name string) Generator {
		return &FuncGenerator{GenName: name, Fn: func(context.Context, Params) (*graph.Graph, error) {
			return graph.New(0), nil
		}}
	}
	if err := r.Register(mk("x")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(mk("x")); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("duplicate registration gave %v, want ErrBadParam", err)
	}
	if err := r.Register(mk("")); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("empty name gave %v, want ErrBadParam", err)
	}
}

func TestInfeasibleGenerationIsClassified(t *testing.T) {
	// A 1-port cap makes any FKP growth beyond 2 nodes infeasible.
	_, err := Default().GenerateByName(context.Background(), "fkp", Params{"n": 10, "ports": 1})
	if !errors.Is(err, errs.ErrInfeasible) {
		t.Fatalf("over-constrained fkp gave %v, want ErrInfeasible", err)
	}
}

// TestHOTPortCapRule checks the hot generator's up-front infeasibility
// rule against growth itself: for every links and ports pair it rejects
// the model with errs.ErrInfeasible exactly when GrowHOTContext would
// have had to ignore the port cap for some arrival.
func TestHOTPortCapRule(t *testing.T) {
	ctx := context.Background()
	for links := 0; links <= 4; links++ {
		for ports := 1; ports <= 5; ports++ {
			for _, n := range []int{ports + 1, ports + 2, 300} {
				p := Params{"n": float64(n), "links": float64(links), "ports": float64(ports)}
				_, err := Default().GenerateByName(ctx, "hot", p)
				if err != nil && !errors.Is(err, errs.ErrInfeasible) {
					t.Fatalf("%v: %v", p, err)
				}
				_, st, gerr := core.GrowHOTContext(ctx, core.HOTConfig{
					N: n, Seed: 1, Distance: 8, Centrality: 1, MaxDegree: ports, LinksPerArrival: links,
				})
				if gerr != nil {
					t.Fatal(gerr)
				}
				if (err != nil) != (st.ConstraintViolations > 0) {
					t.Fatalf("%v: generator error %v, growth ignored the cap for %d arrivals", p, err, st.ConstraintViolations)
				}
			}
		}
	}
	_, err := Default().GenerateByName(ctx, "hot", Params{"n": 1000, "links": 3, "ports": 3})
	if !errors.Is(err, errs.ErrInfeasible) {
		t.Fatalf("hot with 3 links on 3-port routers gave %v, want ErrInfeasible", err)
	}
}

// TestISPPortCapInfeasible checks that the isp model refuses a port cap
// it would have to break: at its default 25 cities, 8 POPs and 2,000
// customers, ports 1-3 leave customers no free port (ErrInfeasible),
// while ports 0 and 4-6 build the design.
func TestISPPortCapInfeasible(t *testing.T) {
	for ports := 0; ports <= 6; ports++ {
		_, err := Default().GenerateByName(context.Background(), "isp", Params{"ports": float64(ports)})
		if want := ports >= 1 && ports <= 3; errors.Is(err, errs.ErrInfeasible) != want || (!want && err != nil) {
			t.Fatalf("isp with ports=%d gave %v, want infeasible %v", ports, err, want)
		}
	}
}
