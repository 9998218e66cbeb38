package metricreg

import (
	"errors"
	"testing"

	"repro/internal/errs"
)

// FuzzParseSelections: the topostats -metrics/-param surface must
// reject malformed input with errs.ErrBadParam and never panic.
func FuzzParseSelections(f *testing.F) {
	f.Add("expansion,clustering", "expansion.maxh=5")
	f.Add("a,,b", "x")
	f.Add("", "")
	f.Add("lcc", "lcc.=1")
	f.Add("lcc", ".x=1")
	f.Add("lcc", "lcc.steps=1e999")
	f.Add("a,a", "a.b=c")
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
	})
}
