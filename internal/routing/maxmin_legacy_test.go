package routing

import (
	"context"
	"math"

	"repro/internal/graph"
)

// maxMinFairLegacy is the pre-volume-aware allocator, kept verbatim as
// the parity baseline: progressive filling that ignores each flow's
// offered Volume — charging the full fair share to every edge a flow
// crosses even when the flow cannot use it — followed by a post-hoc cap
// at the volume. The capped result is feasible but conservative, so it
// lower-bounds the volume-aware allocation (pinned by the parity test).
func maxMinFairLegacy(g *graph.Graph, demands []Demand) (*MaxMinResult, error) {
	if err := checkDemands(g, demands); err != nil {
		return nil, err
	}
	nd := len(demands)
	res := &MaxMinResult{Rate: make([]float64, nd)}

	c := g.Freeze()
	ps, err := pinPaths(context.Background(), c, demands)
	if err != nil {
		return nil, err
	}
	flowEdges := ps.edges

	m := g.NumEdges()
	edgeFlows := make([][]int32, m)
	for i, es := range flowEdges {
		for _, e := range es {
			edgeFlows[e] = append(edgeFlows[e], int32(i))
		}
	}
	usedEdges := make([]int, 0, m)
	live := make([]int, m)
	remaining := make([]float64, m)
	for e := 0; e < m; e++ {
		if len(edgeFlows[e]) == 0 {
			continue
		}
		usedEdges = append(usedEdges, e)
		live[e] = len(edgeFlows[e])
		remaining[e] = g.Edge(e).Capacity
	}
	frozen := make([]bool, nd)
	active := 0
	for i, es := range flowEdges {
		if len(es) > 0 {
			active++
		} else {
			frozen[i] = true
		}
	}

	for active > 0 {
		bestEdge, bestShare := -1, math.Inf(1)
		for _, e := range usedEdges {
			if live[e] == 0 {
				continue
			}
			share := remaining[e] / float64(live[e])
			if share < bestShare {
				bestEdge, bestShare = e, share
			}
		}
		if bestEdge == -1 {
			break
		}
		if bestShare < 0 {
			bestShare = 0
		}
		res.BottleneckEdges++
		for _, i := range edgeFlows[bestEdge] {
			if frozen[i] {
				continue
			}
			frozen[i] = true
			active--
			res.Rate[i] = bestShare
			for _, e := range flowEdges[i] {
				live[e]--
				remaining[e] -= bestShare
				if remaining[e] < 0 {
					remaining[e] = 0
				}
			}
		}
	}

	sum, sumSq := 0.0, 0.0
	routable := 0
	for i, d := range demands {
		if res.Rate[i] > d.Volume {
			res.Rate[i] = d.Volume
		}
		res.Throughput += res.Rate[i]
		if len(flowEdges[i]) > 0 {
			routable++
			sum += res.Rate[i]
			sumSq += res.Rate[i] * res.Rate[i]
		}
	}
	if routable > 0 && sumSq > 0 {
		res.JainIndex = sum * sum / (float64(routable) * sumSq)
	}
	return res, nil
}
