package trafficreg

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/traffic"
)

// FuzzParseSelections asserts the CLI-facing parser never panics and
// classifies every rejection as ErrBadParam, mirroring the metricreg
// and attackreg fuzzers.
func FuzzParseSelections(f *testing.F) {
	f.Add("gravity", "gravity.scale=2")
	f.Add("gravity,uniform", "uniform.volume=1")
	f.Add("", "")
	f.Add("zipf-hotspot", "zipf-hotspot.exponent=abc")
	f.Add("a,b,c", "a.x=1")
	f.Fuzz(func(t *testing.T, names, kv string) {
		var kvs []string
		if kv != "" {
			kvs = strings.Split(kv, ";")
		}
		set, err := Default().ParseSelections(names, kvs)
		if err != nil {
			if !errors.Is(err, errs.ErrBadParam) {
				t.Fatalf("ParseSelections(%q, %q) error %v does not wrap ErrBadParam", names, kv, err)
			}
			return
		}
		// Whatever parsed must survive registry validation or fail as
		// ErrBadParam — never panic.
		geo := &traffic.Geography{Cities: []traffic.City{{Population: 1}, {Population: 2}}}
		for _, sel := range set {
			if _, err := GenerateDemand(context.Background(), geo, sel, 1); err != nil &&
				!errors.Is(err, errs.ErrBadParam) {
				t.Fatalf("GenerateDemand(%+v) error %v does not wrap ErrBadParam", sel, err)
			}
		}
	})
}

// FuzzLookupResolve asserts arbitrary names and parameter values can
// never panic the registry.
func FuzzLookupResolve(f *testing.F) {
	f.Add("gravity", "scale", 2.0)
	f.Add("", "exponent", -1.0)
	f.Add("bimodal", "topfrac", 2.0)
	f.Fuzz(func(t *testing.T, name, param string, v float64) {
		if _, _, err := Default().Resolve(Selection{Name: name, Params: Params{param: v}}); err != nil && !errors.Is(err, errs.ErrBadParam) {
			t.Fatalf("Resolve(%q, {%q: %v}) error %v does not wrap ErrBadParam", name, param, v, err)
		}
	})
}
