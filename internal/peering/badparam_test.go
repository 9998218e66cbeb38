package peering

import (
	"errors"
	"testing"

	"repro/internal/errs"
)

// TestInputErrorsAreBadParam checks that the transit and valley-free
// input errors wrap errs.ErrBadParam.
func TestInputErrorsAreBadParam(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"empty internet", func() error { _, err := AssignTransit(&Internet{}, TransitConfig{}); return err }},
		{"nil transit result", func() error { _, err := ValleyFree(nil); return err }},
	}
	for _, tc := range cases {
		if err := tc.err(); !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("%s: got %v, want an errs.ErrBadParam error", tc.name, err)
		}
	}
}
