package robust

import (
	"context"
	"testing"

	"repro/internal/attackreg"
	"repro/internal/gen"
)

func TestAdaptiveAttackAtLeastAsDeadly(t *testing.T) {
	// On a scale-free graph the adaptive degree attack is at least as
	// destructive as the static one at every removal fraction.
	g, err := gen.BarabasiAlbert(500, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	fracs := []float64{0.05, 0.1, 0.2, 0.3}
	static, err := lccSweep(g, "degree", fracs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := lccSweep(g, "adaptive-degree", fracs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fracs {
		if adaptive[i] > static[i]+0.05 {
			t.Fatalf("frac %v: adaptive %v notably weaker than static %v",
				fracs[i], adaptive[i], static[i])
		}
	}
}

func TestAdaptiveAttackOrderIsPermutation(t *testing.T) {
	g, err := gen.BarabasiAlbert(100, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := attackreg.Lookup("adaptive-degree")
	if err != nil {
		t.Fatal(err)
	}
	order, err := atk.Schedule(context.Background(), g.Clone(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 100 {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, 100)
	for _, v := range order {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatal("removal order is not a permutation")
		}
		seen[v] = true
	}
	// First removal is the max-degree hub.
	deg := g.Degrees()
	for _, d := range deg {
		if d > deg[order[0]] {
			t.Fatal("adaptive attack did not start at the max-degree hub")
		}
	}
}
