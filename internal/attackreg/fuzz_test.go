package attackreg

import (
	"errors"
	"testing"

	"repro/internal/errs"
)

// FuzzParseSelections: the topoattack -attacks/-param surface must
// reject malformed input with errs.ErrBadParam and never panic,
// matching the params and metricreg fuzzers.
func FuzzParseSelections(f *testing.F) {
	f.Add("degree,geographic", "geographic.x=0.5")
	f.Add("a,,b", "x")
	f.Add("", "")
	f.Add("degree", "degree.=1")
	f.Add("degree", ".x=1")
	f.Add("preferential", "preferential.alpha=1e999")
	f.Add("a,a", "a.b=c")
	f.Add("random-failure", "random-failure.seed=-1")
	f.Fuzz(func(t *testing.T, names, kv string) {
		set, err := Default().ParseSelections(names, []string{kv})
		if err != nil {
			if !errors.Is(err, errs.ErrBadParam) {
				t.Fatalf("ParseSelections(%q, %q) error %v does not wrap ErrBadParam", names, kv, err)
			}
			return
		}
		if len(set) == 0 {
			t.Fatalf("ParseSelections(%q, %q) returned an empty set without error", names, kv)
		}
		// A syntactically valid selection naming a registered attack
		// must then resolve or reject through the registry without
		// panicking.
		for _, sel := range set {
			if _, _, err := Default().Resolve(sel); err != nil && !errors.Is(err, errs.ErrBadParam) {
				t.Fatalf("Resolve(%+v) error %v does not wrap ErrBadParam", sel, err)
			}
		}
	})
}
