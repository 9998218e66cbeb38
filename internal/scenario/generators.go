package scenario

import (
	"context"
	"fmt"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isp"
	"repro/internal/peering"
	"repro/internal/traffic"
)

// bound returns a *float64 for ParamSpec Min/Max literals.
func bound(v float64) *float64 { return &v }

// seedSpec is the seed parameter every built-in generator declares.
var seedSpec = ParamSpec{Name: "seed", Kind: Int, Default: 1, Help: "random seed"}

func mustRegister(name string, specs []ParamSpec, fn func(ctx context.Context, p Params) (*graph.Graph, error)) {
	g := &FuncGenerator{GenName: name, GenParams: append(specs, seedSpec), Fn: fn}
	if err := Register(g); err != nil {
		panic(err)
	}
}

func init() {
	mustRegister("fkp", []ParamSpec{
		{Name: "n", Kind: Int, Default: 1000, Min: bound(1), Help: "number of nodes"},
		{Name: "alpha", Kind: Float, Default: 8, Min: bound(0), Help: "distance weight"},
		{Name: "ports", Kind: Int, Default: 0, Min: bound(0), Help: "max router degree (0 = unlimited)"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		return core.FKPContext(ctx, core.FKPConfig{
			N: p.Int("n"), Alpha: p.Float("alpha"), Seed: p.Seed(), MaxDegree: p.Int("ports"),
		})
	})

	mustRegister("hot", []ParamSpec{
		{Name: "n", Kind: Int, Default: 1000, Min: bound(1), Help: "number of nodes"},
		{Name: "alpha", Kind: Float, Default: 8, Min: bound(0), Help: "distance weight"},
		{Name: "links", Kind: Int, Default: 1, Min: bound(0), Help: "links per arrival"},
		{Name: "ports", Kind: Int, Default: 0, Min: bound(0), Help: "max router degree (0 = unlimited)"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		// With links >= ports > 0, arrivals 1..ports build K_{ports+1},
		// every node at the cap, so arrival ports+1 and every later one
		// find no free port; GrowHOTContext would ignore the cap for
		// them. With fewer links than ports each node is born with a free
		// port, so the capped search never comes up empty.
		if links, ports := max(p.Int("links"), 1), p.Int("ports"); ports > 0 && links >= ports && p.Int("n") >= ports+2 {
			return nil, errs.Infeasiblef("scenario: hot: no feasible attachment for node %d (links=%d fill every router's %d ports)", ports+1, links, ports)
		}
		g, _, err := core.GrowHOTContext(ctx, core.HOTConfig{
			N:               p.Int("n"),
			Seed:            p.Seed(),
			Distance:        p.Float("alpha"),
			Centrality:      1,
			MaxDegree:       p.Int("ports"),
			LinksPerArrival: p.Int("links"),
		})
		return g, err
	})

	mustRegister("mmp", []ParamSpec{
		{Name: "n", Kind: Int, Default: 200, Min: bound(1), Help: "number of customers"},
		{Name: "dmin", Kind: Float, Default: 1, Min: bound(0), Help: "minimum customer demand"},
		{Name: "dmax", Kind: Float, Default: 16, Min: bound(0), Help: "maximum customer demand"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		in, err := access.RandomInstance(access.InstanceConfig{
			N: p.Int("n"), Seed: p.Seed(),
			DemandMin: p.Float("dmin"), DemandMax: p.Float("dmax"), RootAtCenter: true,
		})
		if err != nil {
			return nil, err
		}
		if err := errs.Ctx(ctx); err != nil {
			return nil, fmt.Errorf("scenario: mmp: %w", err)
		}
		net, err := access.MMPIncremental(in, p.Seed())
		if err != nil {
			return nil, err
		}
		return net.Graph, nil
	})

	mustRegister("ring", []ParamSpec{
		{Name: "n", Kind: Int, Default: 200, Min: bound(1), Help: "number of customers"},
		{Name: "ringsize", Kind: Int, Default: 8, Min: bound(2), Help: "max customers per SONET ring"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		in, err := access.RandomInstance(access.InstanceConfig{
			N: p.Int("n"), Seed: p.Seed(), DemandMin: 1, DemandMax: 16, RootAtCenter: true,
		})
		if err != nil {
			return nil, err
		}
		if err := errs.Ctx(ctx); err != nil {
			return nil, fmt.Errorf("scenario: ring: %w", err)
		}
		net, err := access.RingMetro(in, p.Int("ringsize"))
		if err != nil {
			return nil, err
		}
		return net.Graph, nil
	})

	mustRegister("ba", []ParamSpec{
		{Name: "n", Kind: Int, Default: 1000, Min: bound(2), Help: "number of nodes"},
		{Name: "m", Kind: Int, Default: 2, Min: bound(1), Help: "links per new node"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		return gen.BarabasiAlbertContext(ctx, p.Int("n"), p.Int("m"), p.Seed())
	})

	mustRegister("glp", []ParamSpec{
		{Name: "n", Kind: Int, Default: 1000, Min: bound(2), Help: "number of nodes"},
		{Name: "m", Kind: Int, Default: 2, Min: bound(1), Help: "links per growth step"},
		{Name: "p", Kind: Float, Default: 0.3, Min: bound(0), Max: bound(0.999), Help: "internal-link probability"},
		{Name: "beta", Kind: Float, Default: 0.5, Max: bound(0.999), Help: "preference shift (< 1)"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		return gen.GLPContext(ctx, p.Int("n"), p.Int("m"), p.Float("p"), p.Float("beta"), p.Seed())
	})

	mustRegister("er-gnp", []ParamSpec{
		{Name: "n", Kind: Int, Default: 1000, Min: bound(0), Help: "number of nodes"},
		{Name: "p", Kind: Float, Default: 0.01, Min: bound(0), Max: bound(1), Help: "edge probability"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		return gen.ErdosRenyiGNPContext(ctx, p.Int("n"), p.Float("p"), p.Seed())
	})

	mustRegister("er-gnm", []ParamSpec{
		{Name: "n", Kind: Int, Default: 1000, Min: bound(0), Help: "number of nodes"},
		{Name: "m", Kind: Int, Default: 2000, Min: bound(0), Help: "number of edges (clamped to C(n,2))"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		return gen.ErdosRenyiGNMContext(ctx, p.Int("n"), p.Int("m"), p.Seed())
	})

	mustRegister("waxman", []ParamSpec{
		{Name: "n", Kind: Int, Default: 1000, Min: bound(0), Help: "number of nodes"},
		{Name: "alpha", Kind: Float, Default: 0.1, Help: "distance decay scale (> 0)"},
		{Name: "beta", Kind: Float, Default: 0.5, Max: bound(1), Help: "edge probability scale (0, 1]"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		return gen.WaxmanContext(ctx, p.Int("n"), p.Float("alpha"), p.Float("beta"), p.Seed())
	})

	mustRegister("transitstub", []ParamSpec{
		{Name: "domains", Kind: Int, Default: 4, Min: bound(1), Help: "transit domains"},
		{Name: "transitsize", Kind: Int, Default: 4, Min: bound(1), Help: "routers per transit domain"},
		{Name: "stubs", Kind: Int, Default: 3, Min: bound(0), Help: "stub domains per transit router"},
		{Name: "stubsize", Kind: Int, Default: 8, Min: bound(1), Help: "routers per stub domain"},
		{Name: "edgeprob", Kind: Float, Default: 0.3, Min: bound(0), Max: bound(1), Help: "intra-domain extra edge probability"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		return gen.TransitStubContext(ctx, gen.TransitStubConfig{
			TransitDomains:  p.Int("domains"),
			TransitSize:     p.Int("transitsize"),
			StubsPerTransit: p.Int("stubs"),
			StubSize:        p.Int("stubsize"),
			EdgeProb:        p.Float("edgeprob"),
			Seed:            p.Seed(),
		})
	})

	mustRegister("rgg", []ParamSpec{
		{Name: "n", Kind: Int, Default: 1000, Min: bound(0), Help: "number of nodes"},
		{Name: "radius", Kind: Float, Default: 0.1, Min: bound(0), Help: "connection radius"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		return gen.RandomGeometricContext(ctx, p.Int("n"), p.Float("radius"), p.Seed())
	})

	mustRegister("configmodel", []ParamSpec{
		{Name: "n", Kind: Int, Default: 200, Min: bound(1), Help: "number of nodes"},
		{Name: "degree", Kind: Int, Default: 4, Min: bound(0), Help: "target degree of every node"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		degrees := make([]int, p.Int("n"))
		for i := range degrees {
			degrees[i] = p.Int("degree")
		}
		g, _, err := gen.ConfigurationModelContext(ctx, degrees, p.Seed())
		return g, err
	})

	mustRegister("inet", []ParamSpec{
		{Name: "n", Kind: Int, Default: 1000, Min: bound(3), Help: "number of nodes"},
		{Name: "alpha", Kind: Float, Default: 2.1, Help: "power-law degree exponent (> 1)"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		return gen.InetLikeContext(ctx, p.Int("n"), p.Float("alpha"), p.Seed())
	})

	mustRegister("isp", []ParamSpec{
		{Name: "cities", Kind: Int, Default: 25, Min: bound(1), Help: "population centers"},
		{Name: "pops", Kind: Int, Default: 8, Min: bound(1), Help: "points of presence"},
		{Name: "customers", Kind: Int, Default: 2000, Min: bound(0), Help: "customers across the footprint"},
		{Name: "ports", Kind: Int, Default: 0, Min: bound(0), Help: "max router degree in metros (0 = unlimited)"},
		{Name: "price", Kind: Float, Default: 0, Min: bound(0), Help: "per-demand price (> 0 switches to the profit formulation)"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		geo, err := traffic.GenerateGeography(traffic.GeographyConfig{
			NumCities: p.Int("cities"), Seed: p.Seed(), ZipfExponent: 1, MinSeparation: 0.03,
		})
		if err != nil {
			return nil, err
		}
		cfg := isp.Config{
			Geography:             geo,
			NumPOPs:               p.Int("pops"),
			Customers:             p.Int("customers"),
			Seed:                  p.Seed(),
			PerfWeight:            50,
			MaxExtraBackboneLinks: 4,
			MaxPorts:              p.Int("ports"),
			DemandMin:             1,
			DemandMax:             8,
		}
		if price := p.Float("price"); price > 0 {
			cfg.Formulation = isp.ProfitBased
			cfg.PricePerDemand = price
		}
		des, err := isp.BuildContext(ctx, cfg)
		if err != nil {
			return nil, err
		}
		if des.PortViolations > 0 {
			return nil, errs.Infeasiblef("scenario: isp: customers with no free port would break their POP's %d-port cap (%d of them)", cfg.MaxPorts, des.PortViolations)
		}
		return des.Graph, nil
	})

	mustRegister("internet", []ParamSpec{
		{Name: "cities", Kind: Int, Default: 25, Min: bound(1), Help: "population centers"},
		{Name: "pops", Kind: Int, Default: 5, Min: bound(1), Help: "POPs per provider"},
		{Name: "customers", Kind: Int, Default: 300, Min: bound(0), Help: "customers per provider"},
		{Name: "isps", Kind: Int, Default: 8, Min: bound(1), Help: "number of providers"},
	}, func(ctx context.Context, p Params) (*graph.Graph, error) {
		geo, err := traffic.GenerateGeography(traffic.GeographyConfig{
			NumCities: p.Int("cities"), Seed: p.Seed(), ZipfExponent: 1, MinSeparation: 0.03,
		})
		if err != nil {
			return nil, err
		}
		inet, err := peering.AssembleContext(ctx, peering.Config{
			Geography:        geo,
			NumISPs:          p.Int("isps"),
			Seed:             p.Seed(),
			POPsPerISP:       p.Int("pops"),
			CustomersPerISP:  p.Int("customers"),
			PeeringSetupCost: 1e-7,
		})
		if err != nil {
			return nil, err
		}
		return inet.Router, nil
	})
}
