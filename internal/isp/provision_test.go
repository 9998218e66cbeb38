package isp

import (
	"context"
	"errors"
	"testing"

	"repro/internal/access"
	"repro/internal/errs"
	"repro/internal/trafficreg"
)

func TestProvisionBackboneBasics(t *testing.T) {
	d, err := BuildContext(context.Background(), baseConfig(t, 41))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ProvisionBackboneContext(context.Background(), d, testGeo(t, 20, 41), access.DefaultCatalog(), 0, trafficreg.Selection{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Demands == 0 {
		t.Fatal("no demands routed")
	}
	if len(rep.LoadPerEdge) != len(d.BackboneEdges) {
		t.Fatal("per-edge arrays mismatched")
	}
	if rep.ProvisionCost <= 0 {
		t.Fatal("provisioning should cost something")
	}
	if rep.MaxUtilization > 1+1e-9 {
		t.Fatalf("utilization %v exceeds 1 after provisioning", rep.MaxUtilization)
	}
	// Capacities were written back onto the backbone edges.
	for _, eid := range d.BackboneEdges {
		if d.Graph.Edge(eid).Capacity <= 0 {
			t.Fatal("backbone edge left unprovisioned")
		}
	}
}

func TestProvisionBackboneCapacityCoversLoad(t *testing.T) {
	d, err := BuildContext(context.Background(), baseConfig(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ProvisionBackboneContext(context.Background(), d, testGeo(t, 20, 42), access.DefaultCatalog(), 0, trafficreg.Selection{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cat := access.DefaultCatalog()
	for k := range rep.LoadPerEdge {
		cap := float64(rep.CountPerEdge[k]) * cat[rep.CablePerEdge[k]].Capacity
		if rep.LoadPerEdge[k] > cap+1e-9 {
			t.Fatalf("edge %d: load %v exceeds cable capacity %v",
				k, rep.LoadPerEdge[k], cap)
		}
	}
}

func TestProvisionBackboneSinglePOP(t *testing.T) {
	geo := testGeo(t, 3, 43)
	d, err := BuildContext(context.Background(), Config{Geography: geo, NumPOPs: 1, Customers: 20, Seed: 1, DemandMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ProvisionBackboneContext(context.Background(), d, geo, access.DefaultCatalog(), 0, trafficreg.Selection{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Demands != 0 || rep.ProvisionCost != 0 {
		t.Fatalf("single-POP provisioning should be empty: %+v", rep)
	}
}

func TestProvisionBackboneErrors(t *testing.T) {
	d, err := BuildContext(context.Background(), baseConfig(t, 44))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProvisionBackboneContext(context.Background(), d, nil, access.DefaultCatalog(), 0, trafficreg.Selection{}, 0); err == nil {
		t.Fatal("nil geography should error")
	}
	if _, err := ProvisionBackboneContext(context.Background(), d, testGeo(t, 20, 44), access.Catalog{}, 0, trafficreg.Selection{}, 0); err == nil {
		t.Fatal("empty catalog should error")
	}
}

// TestProvisionBackboneDemandModels provisions the same design under
// different registry demand models: the default (zero Selection) must
// equal explicit gravity defaults exactly, other models must provision
// successfully with different loads, and a bad selection must fail as
// ErrBadParam before touching the design.
func TestProvisionBackboneDemandModels(t *testing.T) {
	geo := testGeo(t, 20, 46)
	buildOne := func() *Design {
		t.Helper()
		d, err := BuildContext(context.Background(), baseConfig(t, 46))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ctx := context.Background()
	def, err := ProvisionBackboneContext(ctx, buildOne(), geo, access.DefaultCatalog(), 0, trafficreg.Selection{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	grav, err := ProvisionBackboneContext(ctx, buildOne(), geo, access.DefaultCatalog(), 0,
		trafficreg.Selection{Name: "gravity"}, 46)
	if err != nil {
		t.Fatal(err)
	}
	for k := range def.LoadPerEdge {
		if def.LoadPerEdge[k] != grav.LoadPerEdge[k] {
			t.Fatalf("zero Selection differs from explicit gravity at edge %d: %v vs %v",
				k, def.LoadPerEdge[k], grav.LoadPerEdge[k])
		}
	}
	uni, err := ProvisionBackboneContext(ctx, buildOne(), geo, access.DefaultCatalog(), 0,
		trafficreg.Selection{Name: "uniform"}, 46)
	if err != nil {
		t.Fatal(err)
	}
	if uni.Demands == 0 || uni.MaxUtilization > 1+1e-9 {
		t.Fatalf("uniform-demand provisioning implausible: %+v", uni)
	}
	if _, err := ProvisionBackboneContext(ctx, buildOne(), geo, access.DefaultCatalog(), 0,
		trafficreg.Selection{Name: "nope"}, 46); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("unknown demand model gave %v, want ErrBadParam", err)
	}
}

func TestProvisionBackboneExplicitScale(t *testing.T) {
	d, err := BuildContext(context.Background(), baseConfig(t, 45))
	if err != nil {
		t.Fatal(err)
	}
	geo := testGeo(t, 20, 45)
	small, err := ProvisionBackboneContext(context.Background(), d, geo, access.DefaultCatalog(), 1e-9, trafficreg.Selection{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := BuildContext(context.Background(), baseConfig(t, 45))
	if err != nil {
		t.Fatal(err)
	}
	big, err := ProvisionBackboneContext(context.Background(), d2, geo, access.DefaultCatalog(), 1e3, trafficreg.Selection{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if big.ProvisionCost <= small.ProvisionCost {
		t.Fatalf("more demand should cost more: %v vs %v",
			big.ProvisionCost, small.ProvisionCost)
	}
}
