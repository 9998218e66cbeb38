// Package scenario is the repository's registry-driven pipeline API: the
// paper's argument is that topology work should be *scenario-driven* —
// optimization-designed topologies compared against descriptive
// baselines under one metric/routing/robustness harness — and this
// package makes that a first-class, name-addressable operation.
//
// Three pieces compose:
//
//   - A Generator registry: every topology model in the repository
//     (fkp, hot, mmp, ring, ba, glp, er-gnp, er-gnm, waxman,
//     transitstub, rgg, configmodel, inet, isp, internet) registered by
//     name with typed, validated, JSON-serializable parameters.
//   - A declarative Scenario spec (scenario.go): generate + measure +
//     route + attack stages plus seeds/reps, round-tripping through
//     JSON.
//   - An Engine (engine.go) that executes scenarios on the CSR kernel
//     with cancellation, a frozen-snapshot cache keyed by scenario
//     identity, and ordered reductions so batch output is byte-identical
//     at any worker count.
package scenario

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/params"
)

// ParamKind is the declared type of one generator parameter (the shared
// internal/params machinery, also under the other three registries).
type ParamKind = params.Kind

// Parameter kinds. Values travel as JSON numbers (float64); Int-kind
// parameters additionally require an integral value within ±2^53.
const (
	Int   = params.Int
	Float = params.Float
)

// ParamSpec declares one named generator parameter: its kind, default,
// and optional closed bounds. Specs are JSON-serializable so tooling can
// enumerate a generator's interface.
type ParamSpec = params.Spec

// Params carries generator arguments by name. Values are float64 — the
// JSON number type — so a Params map round-trips through JSON verbatim;
// Int-kind parameters are validated to hold integral values.
type Params = params.Params

// Generator is one registered topology model: a name, a typed parameter
// interface, and a context-aware generation function.
type Generator interface {
	// Name is the registry key (e.g. "fkp", "waxman").
	Name() string
	// Params declares the accepted parameters with kinds, defaults and
	// bounds.
	Params() []ParamSpec
	// Generate builds a topology. The given Params have been resolved
	// against the declared specs (defaults filled, unknown names
	// rejected, kinds and bounds checked). Implementations check ctx at
	// iteration boundaries and return an errs.ErrCanceled-wrapping error
	// once it is done.
	Generate(ctx context.Context, p Params) (*graph.Graph, error)
}

// Resolve validates user-supplied params against the generator's specs
// and returns a complete parameter set with defaults filled in. Unknown
// names, non-integral or inexact Int values and out-of-bounds values
// are rejected with errs.ErrBadParam-wrapping errors.
func Resolve(g Generator, p Params) (Params, error) {
	return params.Resolve(fmt.Sprintf("scenario: model %q", g.Name()), g.Params(), p)
}

// Registry maps model names to Generators: the shared params registry
// plus GenerateByName. Build one with NewRegistry; Default() holds
// every built-in model.
type Registry struct {
	*params.Registry[Generator]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{params.NewRegistry[Generator]("scenario", "model", nil, nil)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry holding every built-in
// generator (and anything added through Register).
func Default() *Registry { return defaultRegistry }

// Register adds a generator to the default registry.
func Register(g Generator) error { return defaultRegistry.Register(g) }

// Lookup resolves a name in the default registry.
func Lookup(name string) (Generator, error) { return defaultRegistry.Lookup(name) }

// FuncGenerator adapts a plain function plus a spec list into a
// Generator; it is how every built-in model is registered and the
// easiest way to add external ones.
type FuncGenerator struct {
	GenName   string
	GenParams []ParamSpec
	Fn        func(ctx context.Context, p Params) (*graph.Graph, error)
}

// Name implements Generator.
func (f *FuncGenerator) Name() string { return f.GenName }

// Params implements Generator.
func (f *FuncGenerator) Params() []ParamSpec {
	out := make([]ParamSpec, len(f.GenParams))
	copy(out, f.GenParams)
	return out
}

// Generate implements Generator.
func (f *FuncGenerator) Generate(ctx context.Context, p Params) (*graph.Graph, error) {
	return f.Fn(ctx, p)
}

// GenerateByName resolves name in the registry, validates params, and
// generates — the one-call path CLIs use.
func (r *Registry) GenerateByName(ctx context.Context, name string, p Params) (*graph.Graph, error) {
	g, resolved, err := r.Resolve(params.Selection{Name: name, Params: p})
	if err != nil {
		return nil, err
	}
	return g.Generate(ctx, resolved)
}
