package traffic

import (
	"errors"
	"testing"

	"repro/internal/errs"
)

// TestGeographyErrorIsBadParam checks that a geography with no city is
// an errs.ErrBadParam error.
func TestGeographyErrorIsBadParam(t *testing.T) {
	if _, err := GenerateGeography(GeographyConfig{NumCities: 0}); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("got %v, want an errs.ErrBadParam error", err)
	}
}
