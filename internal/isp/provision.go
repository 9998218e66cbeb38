package isp

import (
	"context"
	"fmt"

	"repro/internal/access"
	"repro/internal/errs"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/trafficreg"
)

// BackboneReport describes the provisioning of the WAN after routing the
// inter-metro demand over it.
type BackboneReport struct {
	// Demands actually routed (one per POP pair with positive gravity
	// demand).
	Demands int
	// LoadPerEdge[i] is the routed traffic on BackboneEdges[i], in
	// cable-capacity units.
	LoadPerEdge []float64
	// CablePerEdge / CountPerEdge is the chosen configuration.
	CablePerEdge []int
	CountPerEdge []int
	// ProvisionCost is the cable cost (install per length plus usage per
	// flow-length) across backbone links.
	ProvisionCost float64
	// MaxUtilization is max(load/capacity) after provisioning; <= 1 by
	// construction since every link gets enough parallel cables.
	MaxUtilization float64
	// AvgPathWeight is the demand-weighted mean backbone path length.
	AvgPathWeight float64
}

// ProvisionBackboneContext routes the inter-metro demand between the
// design's POP metros over the built topology and installs the cheapest
// adequate cable configuration on every backbone link, with
// cancellation. The demand comes from any registered demand model
// (internal/trafficreg; the zero Selection is the canonical gravity
// model with its defaults, the paper's §2.2 input), so the "resource
// capacity" half of topology the paper's footnote 1 insists on
// (topology = connectivity + capacity annotations) is provisioned
// against a first-class, parameterized traffic input instead of a
// hardcoded one. Backbone edge capacities and cable kinds in the design
// graph are updated in place.
//
// demandScale converts demand units into cable-capacity units; <= 0
// picks the scale that puts the busiest link at one top-tier cable.
// seed feeds seed-dependent demand models; pass the Config.Seed the
// design was built with so capacities are sized for the same matrix
// that drove the backbone augmentation (built-ins ignore it).
func ProvisionBackboneContext(ctx context.Context, des *Design, geo *traffic.Geography, cat access.Catalog, demandScale float64, model trafficreg.Selection, seed int64) (*BackboneReport, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	if len(des.BackboneEdges) == 0 {
		return &BackboneReport{}, nil
	}
	if geo == nil {
		return nil, errs.BadParamf("isp: missing geography")
	}
	dm, err := trafficreg.GenerateDemand(ctx, geo, model, seed)
	if err != nil {
		return nil, fmt.Errorf("isp: provision demand: %w", err)
	}
	var demands []routing.Demand
	for i := 0; i < len(des.POPs); i++ {
		for j := i + 1; j < len(des.POPs); j++ {
			v := dm[des.POPCity[i]][des.POPCity[j]]
			if v > 0 {
				demands = append(demands, routing.Demand{
					Src: des.POPs[i], Dst: des.POPs[j], Volume: v,
				})
			}
		}
	}
	res, err := routing.RouteShortestPathsContext(ctx, des.Graph, nil, demands)
	if err != nil {
		return nil, err
	}
	if demandScale <= 0 {
		maxLoad := 0.0
		for _, eid := range des.BackboneEdges {
			if res.Load[eid] > maxLoad {
				maxLoad = res.Load[eid]
			}
		}
		if maxLoad > 0 {
			demandScale = cat[len(cat)-1].Capacity / maxLoad
		} else {
			demandScale = 1
		}
	}
	rep := &BackboneReport{
		Demands:       len(demands),
		LoadPerEdge:   make([]float64, len(des.BackboneEdges)),
		CablePerEdge:  make([]int, len(des.BackboneEdges)),
		CountPerEdge:  make([]int, len(des.BackboneEdges)),
		AvgPathWeight: res.AvgPathWeight,
	}
	for k, eid := range des.BackboneEdges {
		load := res.Load[eid] * demandScale
		kind, count, _ := cat.BestCableConfig(load)
		e := des.Graph.Edge(eid)
		e.Cable = kind
		e.Capacity = float64(count) * cat[kind].Capacity
		rep.LoadPerEdge[k] = load
		rep.CablePerEdge[k] = kind
		rep.CountPerEdge[k] = count
		rep.ProvisionCost += (float64(count)*cat[kind].Install + cat[kind].Usage*load) * e.Weight
		if e.Capacity > 0 {
			if u := load / e.Capacity; u > rep.MaxUtilization {
				rep.MaxUtilization = u
			}
		}
	}
	return rep, nil
}
