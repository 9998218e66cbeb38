package params

import (
	"errors"
	"math"
	"testing"

	"repro/internal/errs"
)

func specs() []Spec {
	one := 1.0
	ten := 10.0
	return []Spec{
		{Name: "n", Kind: Int, Default: 5, Min: &one, Max: &ten},
		{Name: "alpha", Kind: Float, Default: 0.5},
	}
}

func TestResolveDefaultsAndOverrides(t *testing.T) {
	out, err := Resolve("test", specs(), Params{"n": 7})
	if err != nil {
		t.Fatal(err)
	}
	if out.Int("n") != 7 || out.Float("alpha") != 0.5 {
		t.Fatalf("resolved %v", out)
	}
	// Input map is not mutated; output is independent.
	in := Params{"alpha": 2.5}
	out, err = Resolve("test", specs(), in)
	if err != nil {
		t.Fatal(err)
	}
	out["alpha"] = 9
	if in["alpha"] != 2.5 {
		t.Fatal("Resolve aliased its input")
	}
}

func TestResolveRejections(t *testing.T) {
	cases := []Params{
		{"bogus": 1},           // unknown name
		{"n": 2.5},             // non-integral int
		{"n": 0},               // below min
		{"n": 11},              // above max
		{"alpha": math.NaN()},  // NaN
		{"alpha": math.Inf(1)}, // Inf
		{"n": math.Inf(-1)},    // -Inf
	}
	for _, p := range cases {
		if _, err := Resolve("test", specs(), p); !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("Resolve(%v) gave %v, want ErrBadParam", p, err)
		}
	}
}

// TestResolveRejectsInexactInt: an integral Int value beyond ±2^53 is
// rejected even without declared bounds, since Params.Int cannot
// convert it exactly (1e19 would wrap to a negative int); ±2^53 itself
// is exact and accepted.
func TestResolveRejectsInexactInt(t *testing.T) {
	unbounded := []Spec{{Name: "seed", Kind: Int, Default: 1}}
	for _, v := range []float64{1e19, -1e19, 1<<53 + 2, math.MaxFloat64} {
		if _, err := Resolve("test", unbounded, Params{"seed": v}); !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("seed=%v gave %v, want ErrBadParam", v, err)
		}
	}
	for _, v := range []float64{1 << 53, -(1 << 53)} {
		out, err := Resolve("test", unbounded, Params{"seed": v})
		if err != nil {
			t.Fatalf("seed=%v rejected: %v", v, err)
		}
		if float64(out.Int("seed")) != v || float64(out.Seed()) != v {
			t.Fatalf("seed=%v read back as %d", v, out.Int("seed"))
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	var p Params
	c := p.Clone()
	c["x"] = 1 // nil receiver clones to a writable map
	if len(c) != 1 {
		t.Fatal("clone of nil not writable")
	}
	p = Params{"a": 1}
	c = p.Clone()
	c["a"] = 2
	if p["a"] != 1 {
		t.Fatal("Clone aliased its receiver")
	}
}

func TestSeed(t *testing.T) {
	if (Params{"seed": 42}).Seed() != 42 {
		t.Fatal("Seed read failed")
	}
}

func TestParseKV(t *testing.T) {
	name, v, err := ParseKV("alpha=2.5")
	if err != nil || name != "alpha" || v != 2.5 {
		t.Fatalf("ParseKV = %q %v %v", name, v, err)
	}
	for _, bad := range []string{"alpha", "=1", "alpha=x", "", "alpha="} {
		if _, _, err := ParseKV(bad); !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("ParseKV(%q) gave %v, want ErrBadParam", bad, err)
		}
	}
}

func TestParseKVs(t *testing.T) {
	p, err := ParseKVs([]string{"a=1", "b=2", "a=3"})
	if err != nil {
		t.Fatal(err)
	}
	if p["a"] != 3 || p["b"] != 2 {
		t.Fatalf("ParseKVs = %v", p)
	}
	if _, err := ParseKVs([]string{"a=1", "junk"}); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("ParseKVs with junk gave %v", err)
	}
}

func TestNamesSorted(t *testing.T) {
	if got := Names(specs()); got != "alpha, n" {
		t.Fatalf("Names = %q", got)
	}
}
