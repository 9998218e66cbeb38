package routing

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

// diamond builds a 4-node graph with two parallel 2-hop routes of
// different weights between node 0 and node 3.
//
//	0 --1-- 1 --1-- 3     (short route, capacity 5 per edge)
//	0 --2-- 2 --2-- 3     (long route, capacity 100 per edge)
func diamond() *graph.Graph {
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{})
	}
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 5})
	g.AddEdge(graph.Edge{U: 1, V: 3, Weight: 1, Capacity: 5})
	g.AddEdge(graph.Edge{U: 0, V: 2, Weight: 2, Capacity: 100})
	g.AddEdge(graph.Edge{U: 2, V: 3, Weight: 2, Capacity: 100})
	return g
}

func TestRouteShortestPathsPicksShortRoute(t *testing.T) {
	g := diamond()
	res, err := RouteShortestPathsContext(context.Background(), g, nil, []Demand{{Src: 0, Dst: 3, Volume: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 10 || res.Dropped != 0 {
		t.Fatalf("delivered %v dropped %v", res.Delivered, res.Dropped)
	}
	if res.Load[0] != 10 || res.Load[1] != 10 {
		t.Fatalf("short route loads = %v", res.Load)
	}
	if res.Load[2] != 0 || res.Load[3] != 0 {
		t.Fatal("long route should carry nothing")
	}
	if res.AvgPathWeight != 2 || res.AvgHops != 2 {
		t.Fatalf("path weight %v hops %v, want 2/2", res.AvgPathWeight, res.AvgHops)
	}
	// 10 over capacity 5 ⇒ utilization 2.
	if res.MaxUtilization != 2 {
		t.Fatalf("max utilization = %v, want 2", res.MaxUtilization)
	}
}

func TestRouteShortestPathsDisconnected(t *testing.T) {
	g := graph.New(2)
	g.AddNode(graph.Node{})
	g.AddNode(graph.Node{})
	res, err := RouteShortestPathsContext(context.Background(), g, nil, []Demand{{Src: 0, Dst: 1, Volume: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 || res.Dropped != 3 {
		t.Fatalf("delivered %v dropped %v", res.Delivered, res.Dropped)
	}
}

func TestRouteShortestPathsZeroCapacityUtilization(t *testing.T) {
	g := graph.New(2)
	g.AddNode(graph.Node{})
	g.AddNode(graph.Node{})
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 0})
	res, err := RouteShortestPathsContext(context.Background(), g, nil, []Demand{{Src: 0, Dst: 1, Volume: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.MaxUtilization, 1) {
		t.Fatal("loaded zero-capacity edge should give +Inf utilization")
	}
}

func TestRouteCapacitatedAdmitsUpToBottleneck(t *testing.T) {
	g := diamond()
	res, err := RouteCapacitatedContext(context.Background(), g, nil, []Demand{{Src: 0, Dst: 3, Volume: 10}})
	if err != nil {
		t.Fatal(err)
	}
	// Shortest route bottleneck is 5; remainder is dropped (greedy, no
	// rerouting).
	if res.Delivered != 5 || res.Dropped != 5 {
		t.Fatalf("delivered %v dropped %v, want 5/5", res.Delivered, res.Dropped)
	}
	if res.MaxUtilization > 1+1e-9 {
		t.Fatalf("capacitated routing exceeded capacity: %v", res.MaxUtilization)
	}
}

func TestRouteCapacitatedOrderMatters(t *testing.T) {
	g := diamond()
	demands := []Demand{
		{Src: 0, Dst: 3, Volume: 5},
		{Src: 0, Dst: 1, Volume: 5},
	}
	res, err := RouteCapacitatedContext(context.Background(), g, nil, demands)
	if err != nil {
		t.Fatal(err)
	}
	// First demand fills 0-1; second gets nothing on that edge.
	if res.Delivered != 5 {
		t.Fatalf("delivered %v, want 5", res.Delivered)
	}
}

func TestRouteCapacitatedPartialDelivery(t *testing.T) {
	g := graph.New(2)
	g.AddNode(graph.Node{})
	g.AddNode(graph.Node{})
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 1, Capacity: 3})
	res, err := RouteCapacitatedContext(context.Background(), g, nil, []Demand{{Src: 0, Dst: 1, Volume: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 3 || res.Dropped != 7 {
		t.Fatalf("delivered %v dropped %v", res.Delivered, res.Dropped)
	}
}

func TestDemandValidation(t *testing.T) {
	g := diamond()
	cases := [][]Demand{
		{{Src: -1, Dst: 1, Volume: 1}},
		{{Src: 0, Dst: 9, Volume: 1}},
		{{Src: 2, Dst: 2, Volume: 1}},
		{{Src: 0, Dst: 1, Volume: -1}},
	}
	for i, ds := range cases {
		if _, err := RouteShortestPathsContext(context.Background(), g, nil, ds); err == nil {
			t.Fatalf("case %d should error", i)
		}
		if _, err := RouteCapacitatedContext(context.Background(), g, nil, ds); err == nil {
			t.Fatalf("capacitated case %d should error", i)
		}
	}
}

func TestZeroVolumeIgnored(t *testing.T) {
	g := diamond()
	res, err := RouteShortestPathsContext(context.Background(), g, nil, []Demand{{Src: 0, Dst: 3, Volume: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 || res.Dropped != 0 {
		t.Fatal("zero-volume demand should be a no-op")
	}
}

func TestMultiSourceLoadsAccumulate(t *testing.T) {
	g := diamond()
	res, err := RouteShortestPathsContext(context.Background(), g, nil, []Demand{
		{Src: 0, Dst: 3, Volume: 2},
		{Src: 3, Dst: 0, Volume: 3},
		{Src: 1, Dst: 0, Volume: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 6 {
		t.Fatalf("delivered = %v", res.Delivered)
	}
	// Edge 0 (0-1) carries 2 + 3 + 1 = 6.
	if res.Load[0] != 6 {
		t.Fatalf("edge 0 load = %v, want 6", res.Load[0])
	}
}

// TestParentCycleIsAnError is the regression test for the path walk's
// hop cap. Node 3 joins node 2 by a weight-1 edge and nodes 0, 1 and 2
// form a zero-weight triangle. From source 3 the smallest-id tie-break
// gives Parent = [1 0 0 -1]: node 2's parent is 0, and 0 and 1 are each
// other's parents, so the walk from 2 never reaches 3. Every path-walking
// entry point must return an error naming the demand's endpoints instead
// of looping; a deadline turns a regression into a failure rather than a
// hang.
func TestParentCycleIsAnError(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{})
	}
	g.AddEdge(graph.Edge{U: 3, V: 2, Weight: 1, Capacity: 1})
	g.AddEdge(graph.Edge{U: 0, V: 1, Weight: 0, Capacity: 1})
	g.AddEdge(graph.Edge{U: 1, V: 2, Weight: 0, Capacity: 1})
	g.AddEdge(graph.Edge{U: 0, V: 2, Weight: 0, Capacity: 1})
	c := g.Freeze()
	ws := graph.GetWorkspace(4)
	defer ws.Release()
	for name, kernel := range map[string]func(){
		"heap":     func() { c.DijkstraHeap(ws, 3) },
		"bucketed": func() { c.DijkstraTo(ws, 3, nil) },
	} {
		kernel()
		if got := fmt.Sprint(ws.Parent); got != "[1 0 0 -1]" {
			t.Fatalf("%s kernel parents from 3 = %s, want the cycle [1 0 0 -1] this test exercises", name, got)
		}
	}
	demands := []Demand{{Src: 3, Dst: 2, Volume: 1}}
	entries := map[string]func() error{
		"shortest":    func() error { _, err := RouteShortestPathsContext(context.Background(), g, nil, demands); return err },
		"capacitated": func() error { _, err := RouteCapacitatedContext(context.Background(), g, nil, demands); return err },
		"maxmin":      func() error { _, err := MaxMinFairContext(context.Background(), g, nil, demands); return err },
	}
	for name, run := range entries {
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "3->2") {
				t.Errorf("%s: err = %v, want a parent-walk error naming 3->2", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: parent walk did not return", name)
		}
	}
}
