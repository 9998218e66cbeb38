// Package trafficreg is the traffic-demand mirror of the generator,
// metric and attack registries (internal/scenario, internal/metricreg,
// internal/attackreg): every demand model the performance harness can
// route is registered by name with typed, validated, JSON-serializable
// parameters. The paper's §2.2 makes traffic the canonical input of
// topology evaluation — "a natural approach to traffic demand is based
// on population centers dispersed over a geographic region" — and this
// package makes the demand model a first-class, parameterized stage
// rather than a hardcoded gravity call.
//
// A DemandModel turns a Geography (population centers with locations)
// into a symmetric city-to-city DemandMatrix, deterministically from
// its resolved parameters and a seed. Consumers span the stack: the ISP
// provisioner and the peering optimizer generate inter-metro demand
// through it, and the scenario engine's traffic stage evaluates any
// generated topology by lifting its nodes into a pseudo-geography
// (SiteGeography) and allocating the resulting demands max-min fairly.
package trafficreg

import (
	"context"

	"repro/internal/errs"
	"repro/internal/params"
	"repro/internal/traffic"
)

// Params carries demand-model arguments by name (the shared
// internal/params machinery, also under the other three registries).
// Values are float64 — the JSON number type — so a Params map
// round-trips through JSON verbatim.
type Params = params.Params

// ParamSpec declares one named demand-model parameter: its kind,
// default, and optional closed bounds.
type ParamSpec = params.Spec

// DemandModel is one registered traffic-demand model: a name, a typed
// parameter interface, and a matrix-generation function.
type DemandModel interface {
	// Name is the registry key (e.g. "gravity", "zipf-hotspot").
	Name() string
	// Params declares the accepted parameters with kinds, defaults and
	// bounds.
	Params() []params.Spec
	// Generate builds the symmetric city-to-city demand matrix for geo,
	// deterministically from the resolved params and seed.
	// Implementations check ctx at iteration boundaries of superlinear
	// work and return an errs.ErrCanceled-wrapping error once it is
	// done.
	Generate(ctx context.Context, geo *traffic.Geography, p params.Params, seed int64) (traffic.DemandMatrix, error)
}

// Selection names one demand model with optional parameters; it
// round-trips through JSON and is the unit scenario.TrafficSpec, the
// ISP/peering configs, and the CLIs validate against the registry (the
// shared internal/params shape, also under the other registries).
type Selection = params.Selection

// Registry maps demand-model names to DemandModels: the shared params
// registry plus GenerateDemand. Build one with NewRegistry; Default()
// holds every built-in model.
type Registry struct {
	*params.Registry[DemandModel]
}

// NewRegistry returns an empty registry in which the empty name is
// gravity — the paper's canonical demand model — so a zero Selection
// reproduces the pre-registry hardcoded behavior.
func NewRegistry() *Registry {
	return &Registry{params.NewRegistry[DemandModel]("trafficreg", "model", map[string]string{"": "gravity"}, nil)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry holding every built-in
// demand model (and anything added through Register).
func Default() *Registry { return defaultRegistry }

// Register adds a model to the default registry.
func Register(m DemandModel) error { return defaultRegistry.Register(m) }

// Canonical maps a possibly-aliased model name to its default-registry
// key ("" is gravity). Unknown names pass through unchanged
// (Registry.Lookup reports them).
func Canonical(name string) string { return defaultRegistry.Canonical(name) }

// Names lists the default registry, sorted.
func Names() []string { return defaultRegistry.Names() }

// FuncModel adapts a parameter-spec list plus a generation function
// into a DemandModel; it is how every built-in model is registered and
// the easiest way to add external ones.
type FuncModel struct {
	ModelName   string
	ModelParams []params.Spec
	Fn          func(ctx context.Context, geo *traffic.Geography, p params.Params, seed int64) (traffic.DemandMatrix, error)
}

// Name implements DemandModel.
func (f *FuncModel) Name() string { return f.ModelName }

// Params implements DemandModel.
func (f *FuncModel) Params() []params.Spec {
	out := make([]params.Spec, len(f.ModelParams))
	copy(out, f.ModelParams)
	return out
}

// Generate implements DemandModel.
func (f *FuncModel) Generate(ctx context.Context, geo *traffic.Geography, p params.Params, seed int64) (traffic.DemandMatrix, error) {
	return f.Fn(ctx, geo, p, seed)
}

// GenerateDemand resolves sel in the registry, validates its params,
// and generates the demand matrix for geo — the one-call path the
// ISP/peering layers and the scenario engine use. A zero Selection
// runs gravity with its defaults (the paper's §2.2 canonical model,
// numerically identical to the pre-registry hardcoded call).
func (r *Registry) GenerateDemand(ctx context.Context, geo *traffic.Geography, sel Selection, seed int64) (traffic.DemandMatrix, error) {
	if geo == nil {
		return nil, errs.BadParamf("trafficreg: missing geography")
	}
	m, resolved, err := r.Resolve(sel)
	if err != nil {
		return nil, err
	}
	return m.Generate(ctx, geo, resolved, seed)
}

// GenerateDemand generates with the default registry.
func GenerateDemand(ctx context.Context, geo *traffic.Geography, sel Selection, seed int64) (traffic.DemandMatrix, error) {
	return defaultRegistry.GenerateDemand(ctx, geo, sel, seed)
}
