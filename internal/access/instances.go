package access

import (
	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/rng"
)

// InstanceConfig parameterizes random instance generation for the E2/E3
// experiments.
type InstanceConfig struct {
	N       int       // number of customers
	Seed    int64     //
	Region  geom.Rect // zero value = unit square
	Catalog Catalog   // nil = DefaultCatalog
	// Demand distribution: bounded Pareto on [DemandMin, DemandMax] with
	// shape 1.2. DemandMax <= DemandMin gives constant DemandMin.
	DemandMin float64
	DemandMax float64
	// Clusters > 0 scatters customers around that many Gaussian metro
	// clusters instead of uniformly (paper §2.1: "most customers reside
	// in the big cities").
	Clusters     int
	ClusterSigma float64
	RootAtCenter bool // root at region center; otherwise random corner bias
}

// RandomInstance draws an instance per the configuration.
func RandomInstance(cfg InstanceConfig) (*Instance, error) {
	if cfg.N < 1 {
		return nil, errs.BadParamf("access: instance needs N >= 1")
	}
	region := cfg.Region
	if region == (geom.Rect{}) {
		region = geom.UnitSquare
	}
	cat := cfg.Catalog
	if cat == nil {
		cat = DefaultCatalog()
	}
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	dmin := cfg.DemandMin
	if dmin <= 0 {
		dmin = 1
	}
	r := rng.New(cfg.Seed)

	var pts []geom.Point
	if cfg.Clusters > 0 {
		sigma := cfg.ClusterSigma
		if sigma <= 0 {
			sigma = 0.05
		}
		centers := region.RandomPoints(r, cfg.Clusters)
		// Cluster sizes follow a Zipf law over cluster rank.
		z := rng.NewZipf(cfg.Clusters, 1.0)
		counts := make([]int, cfg.Clusters)
		for i := 0; i < cfg.N; i++ {
			counts[z.Sample(r)-1]++
		}
		for ci, cnt := range counts {
			pts = append(pts, region.GaussianCluster(r, centers[ci], sigma, cnt)...)
		}
	} else {
		pts = region.RandomPoints(r, cfg.N)
	}

	in := &Instance{Root: region.Center(), Catalog: cat}
	if !cfg.RootAtCenter && cfg.Clusters == 0 {
		in.Root = region.RandomPoint(r)
	}
	for _, p := range pts {
		d := dmin
		if cfg.DemandMax > dmin {
			d = rng.BoundedPareto(r, dmin, cfg.DemandMax, 1.2)
		}
		in.Customers = append(in.Customers, Customer{Loc: p, Demand: d})
	}
	return in, nil
}
