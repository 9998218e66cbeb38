package isp

import (
	"context"
	"errors"
	"testing"

	"repro/internal/access"
	"repro/internal/errs"
	"repro/internal/trafficreg"
)

// TestConfigErrorsAreBadParam checks that every design and provisioning
// config error wraps errs.ErrBadParam.
func TestConfigErrorsAreBadParam(t *testing.T) {
	geo := testGeo(t, 5, 11)
	build := func(cfg Config) func() error {
		return func() error { _, err := BuildContext(context.Background(), cfg); return err }
	}
	des, err := BuildContext(context.Background(), baseConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  func() error
	}{
		{"missing geography", build(Config{NumPOPs: 2})},
		{"no POP", build(Config{Geography: geo})},
		{"negative customers", build(Config{Geography: geo, NumPOPs: 2, Customers: -1})},
		{"profit without price", build(Config{Geography: geo, NumPOPs: 2, Formulation: ProfitBased})},
		{"provision without geography", func() error {
			_, err := ProvisionBackboneContext(context.Background(), des, nil, access.DefaultCatalog(), 1, trafficreg.Selection{}, 1)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.err(); !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("%s: got %v, want an errs.ErrBadParam error", tc.name, err)
		}
	}
}
