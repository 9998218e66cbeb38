package access

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func tinyInstance(t *testing.T, n int, seed int64) *Instance {
	t.Helper()
	in, err := RandomInstance(InstanceConfig{
		N: n, Seed: seed, DemandMin: 1, DemandMax: 8, RootAtCenter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestExactOPTAboveLowerBound(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := tinyInstance(t, 6, seed)
		opt, parent, err := exactTreeOPT(in)
		if err != nil {
			t.Fatal(err)
		}
		lb := LowerBound(in)
		if opt < lb-1e-9 {
			t.Fatalf("seed %d: OPT %v below lower bound %v", seed, opt, lb)
		}
		if len(parent) != 7 || parent[0] != -1 {
			t.Fatalf("seed %d: bad parent array %v", seed, parent)
		}
	}
}

func TestHeuristicsNeverBeatExact(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in := tinyInstance(t, 6, seed)
		opt, _, err := exactTreeOPT(in)
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range map[string]func() (*Network, error){
			"mmp":  func() (*Network, error) { return MMPIncremental(in, rng.Derive(seed, 1)) },
			"sa":   func() (*Network, error) { return SampleAndAugment(in, rng.Derive(seed, 2), 0.3) },
			"mst":  func() (*Network, error) { return SingleCableMST(in) },
			"star": func() (*Network, error) { return DirectStar(in) },
		} {
			net, err := run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if net.TotalCost() < opt-1e-9 {
				t.Fatalf("seed %d: %s cost %v beats the exact optimum %v — exact solver or costing is broken",
					seed, name, net.TotalCost(), opt)
			}
		}
	}
}

func TestMMPNearOptimalOnTinyInstances(t *testing.T) {
	// The empirical teeth behind the §4.1 constant-factor claim: on
	// exactly-solvable instances the incremental heuristic lands within
	// a small factor of true OPT.
	worst := 0.0
	for seed := int64(0); seed < 10; seed++ {
		in := tinyInstance(t, 6, seed)
		opt, _, err := exactTreeOPT(in)
		if err != nil {
			t.Fatal(err)
		}
		net, err := MMPIncremental(in, rng.Derive(seed, 3))
		if err != nil {
			t.Fatal(err)
		}
		if ratio := net.TotalCost() / opt; ratio > worst {
			worst = ratio
		}
	}
	if worst > 2.0 {
		t.Fatalf("MMP/OPT worst ratio %v on tiny instances, expected < 2", worst)
	}
}

func TestExactOPTMatchesBruteCheckOnTwoCustomers(t *testing.T) {
	// With 2 customers there are exactly 3 labelled trees; verify by
	// hand pricing.
	in := tinyInstance(t, 2, 3)
	opt, parent, err := exactTreeOPT(in)
	if err != nil {
		t.Fatal(err)
	}
	price := func(parent []int) float64 {
		net, err := buildTreeFromParents(in, parent)
		if err != nil {
			t.Fatal(err)
		}
		return net.TotalCost()
	}
	candidates := [][]int{
		{-1, 0, 0}, // both direct to root
		{-1, 0, 1}, // chain root-1-2
		{-1, 2, 0}, // chain root-2-1
	}
	best := math.Inf(1)
	for _, c := range candidates {
		if v := price(c); v < best {
			best = v
		}
	}
	if math.Abs(opt-best) > 1e-9 {
		t.Fatalf("exact OPT %v != brute minimum %v (parent %v)", opt, best, parent)
	}
}

func TestExactOPTCapEnforced(t *testing.T) {
	in := tinyInstance(t, maxExactCustomers+1, 4)
	if _, _, err := exactTreeOPT(in); err == nil {
		t.Fatal("oversized instance should be rejected")
	}
}

func TestBuildTreeFromParentsValidates(t *testing.T) {
	in := tinyInstance(t, 3, 5)
	if _, err := buildTreeFromParents(in, []int{-1, 0, 99, 0}); err == nil {
		t.Fatal("bad parent id should error")
	}
	net, err := buildTreeFromParents(in, []int{-1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !net.Graph.IsTree() {
		t.Fatal("star parents should build a tree")
	}
}

func TestExactSingleCustomer(t *testing.T) {
	in := tinyInstance(t, 1, 6)
	opt, parent, err := exactTreeOPT(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(parent) != 2 || parent[1] != 0 {
		t.Fatalf("parent = %v", parent)
	}
	// Only one tree exists; cost = best config for the demand * dist.
	_, _, unit := in.Catalog.BestCableConfig(in.Customers[0].Demand)
	want := unit * in.Customers[0].Loc.Dist(in.Root)
	if math.Abs(opt-want) > 1e-9 {
		t.Fatalf("opt = %v, want %v", opt, want)
	}
}
