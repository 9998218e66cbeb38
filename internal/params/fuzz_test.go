package params

import (
	"errors"
	"math"
	"testing"

	"repro/internal/errs"
)

// FuzzParseKV: malformed name=value pairs must surface as
// errs.ErrBadParam, never panic — this is the path every CLI -param
// flag and every scenario/metric spec file funnels through.
func FuzzParseKV(f *testing.F) {
	for _, seed := range []string{"a=1", "alpha=2.5", "=1", "a", "", "a=x", "a=1e999", "seed=-3", "a=b=c", "=", "\x00=\x00"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		name, v, err := ParseKV(s)
		if err != nil {
			if !errors.Is(err, errs.ErrBadParam) {
				t.Fatalf("ParseKV(%q) error %v does not wrap ErrBadParam", s, err)
			}
			return
		}
		if name == "" {
			t.Fatalf("ParseKV(%q) accepted an empty name", s)
		}
		_ = v
	})
}

// FuzzResolve: resolution against a spec list must reject garbage with
// errs.ErrBadParam and never panic, whatever the name/value.
func FuzzResolve(f *testing.F) {
	f.Add("n", 5.0)
	f.Add("alpha", math.Inf(1))
	f.Add("bogus", 1.5)
	f.Add("", math.NaN())
	f.Add("n", -1e308)
	f.Add("seed", 1e19)
	one, ten := 1.0, 10.0
	specs := []Spec{
		{Name: "n", Kind: Int, Default: 5, Min: &one, Max: &ten},
		{Name: "alpha", Kind: Float, Default: 0.5},
		{Name: "seed", Kind: Int, Default: 1},
	}
	f.Fuzz(func(t *testing.T, name string, v float64) {
		out, err := Resolve("fuzz", specs, Params{name: v})
		if err != nil {
			if !errors.Is(err, errs.ErrBadParam) {
				t.Fatalf("Resolve(%q=%v) error %v does not wrap ErrBadParam", name, v, err)
			}
			return
		}
		if math.IsNaN(out[name]) || math.IsInf(out[name], 0) {
			t.Fatalf("Resolve accepted non-finite %q=%v", name, v)
		}
		// Every accepted Int value reads back exactly through Int.
		for _, s := range specs {
			if s.Kind == Int && float64(out.Int(s.Name)) != out[s.Name] {
				t.Fatalf("Resolve accepted %q=%v, which Int reads as %d", s.Name, out[s.Name], out.Int(s.Name))
			}
		}
	})
}
