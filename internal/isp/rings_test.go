package isp

import (
	"testing"

	"repro/internal/graph"
)

func TestMetroRingsBuild(t *testing.T) {
	cfg := baseConfig(t, 51)
	cfg.MetroRingSize = 6
	d, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.CustomersServed != 400 {
		t.Fatalf("served = %d", d.CustomersServed)
	}
	if !d.Graph.IsConnected() {
		t.Fatal("ring ISP must be connected")
	}
	// No customer leaves: every customer sits on a ring.
	for _, u := range nodesOfKind(d.Graph, graph.KindCustomer) {
		if d.Graph.Degree(u) < 2 {
			t.Fatalf("customer %d has degree %d, want >= 2 on a ring", u, d.Graph.Degree(u))
		}
	}
}

func TestMetroRingsCostMoreThanTrees(t *testing.T) {
	cfg := baseConfig(t, 52)
	tree, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MetroRingSize = 8
	ring, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ring.AccessCost <= tree.AccessCost {
		t.Fatalf("ring access %v should cost more than tree %v",
			ring.AccessCost, tree.AccessCost)
	}
}

func TestMetroRingsValidation(t *testing.T) {
	cfg := baseConfig(t, 53)
	cfg.MetroRingSize = 1
	if _, err := Build(cfg); err == nil {
		t.Fatal("ring size 1 should error")
	}
	cfg = baseConfig(t, 53)
	cfg.MetroRingSize = 4
	cfg.Formulation = ProfitBased
	cfg.PricePerDemand = 1
	if _, err := Build(cfg); err == nil {
		t.Fatal("rings + profit formulation should error")
	}
}

func TestMetroRingsSurviveSingleCut(t *testing.T) {
	// Removing any single access edge must not disconnect a ring metro's
	// customers from the backbone; only the backbone tree edges (if the
	// perf optimizer bought no redundancy) are bridges.
	cfg := baseConfig(t, 54)
	cfg.MetroRingSize = 5
	d, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	backbone := map[int]bool{}
	for _, e := range d.BackboneEdges {
		backbone[e] = true
	}
	for _, b := range d.Graph.BridgeEdges() {
		if !backbone[b] {
			t.Fatalf("access edge %d is a bridge in a ring metro", b)
		}
	}
}
