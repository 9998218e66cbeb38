package access

import (
	"errors"
	"testing"

	"repro/internal/errs"
)

// TestValidationErrorsAreBadParam checks that every catalog, instance
// and algorithm parameter error wraps errs.ErrBadParam.
func TestValidationErrorsAreBadParam(t *testing.T) {
	cat := DefaultCatalog()
	valid, err := RandomInstance(InstanceConfig{N: 6, Seed: 1, DemandMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	catalog := func(c Catalog) func() error { return c.Validate }
	cases := []struct {
		name string
		err  func() error
	}{
		{"empty catalog", catalog(Catalog{})},
		{"non-positive cable", catalog(Catalog{{Name: "a", Capacity: 0, Install: 1, Usage: 1}})},
		{"capacities fall", catalog(Catalog{{Name: "a", Capacity: 2, Install: 1, Usage: 1}, {Name: "b", Capacity: 1, Install: 2, Usage: 0.5}})},
		{"install costs fall", catalog(Catalog{{Name: "a", Capacity: 1, Install: 2, Usage: 1}, {Name: "b", Capacity: 2, Install: 1, Usage: 0.5}})},
		{"usage costs do not fall", catalog(Catalog{{Name: "a", Capacity: 1, Install: 1, Usage: 1}, {Name: "b", Capacity: 2, Install: 2, Usage: 1}})},
		{"no customers", (&Instance{Catalog: cat}).Validate},
		{"negative demand", (&Instance{Catalog: cat, Customers: []Customer{{Demand: -1}}}).Validate},
		{"instance N", func() error { _, err := RandomInstance(InstanceConfig{N: 0}); return err }},
		{"sampling probability", func() error { _, err := SampleAndAugment(valid, 1, 0); return err }},
		{"ring size", func() error { _, err := RingMetro(valid, 1); return err }},
	}
	for _, tc := range cases {
		if err := tc.err(); !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("%s: got %v, want an errs.ErrBadParam error", tc.name, err)
		}
	}
}
