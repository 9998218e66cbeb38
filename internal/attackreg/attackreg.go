// Package attackreg is the failure/attack mirror of the generator and
// metric registries (internal/scenario, internal/metricreg): every
// node- or edge-removal strategy the robustness harness can run is
// registered by name with typed, validated, JSON-serializable
// parameters, so "as many scenarios as you can imagine" extends to the
// attack axis — the paper's "robust yet fragile" claim (§3.1) only
// shows its shape under many different perturbation models.
//
// An Attack turns a topology into a complete removal schedule — a
// permutation of node ids or edge ids, deterministically from its
// resolved parameters and a seed. The sweep engine (internal/robust)
// consumes schedules two ways: re-evaluating masked metrics at each
// removal fraction, or replaying the whole schedule backwards through a
// reverse union-find for the near-linear LCC trajectory.
package attackreg

import (
	"context"
	"strings"

	"repro/internal/graph"
	"repro/internal/params"
)

// Params carries attack arguments by name (the shared internal/params
// machinery, also under the generator and metric registries). Values
// are float64 — the JSON number type — so a Params map round-trips
// through JSON verbatim.
type Params = params.Params

// ParamSpec declares one named attack parameter: its kind, default, and
// optional closed bounds.
type ParamSpec = params.Spec

// Target declares what a schedule's entries index: nodes or edges.
type Target uint8

// Schedule targets.
const (
	// Nodes: schedule entries are node ids; removing a node removes its
	// incident edges.
	Nodes Target = iota
	// Edges: schedule entries are edge ids; all nodes stay present.
	Edges
)

// String names the target.
func (t Target) String() string {
	if t == Edges {
		return "edges"
	}
	return "nodes"
}

// Caps declares schedule properties the sweep engine plans around.
type Caps uint32

// Capability flags.
const (
	// CapRandomized: the schedule depends on the seed, so sweeps average
	// over trials. Deterministic attacks always use a single pass.
	CapRandomized Caps = 1 << iota
	// CapAdaptive: the attack re-scores the residual topology as
	// removals proceed (strictly deadlier than its static counterpart on
	// hub topologies).
	CapAdaptive
)

// Attack is one registered removal strategy: a name, a typed parameter
// interface, a target (nodes or edges), and a schedule function.
type Attack interface {
	// Name is the registry key (e.g. "degree", "geographic").
	Name() string
	// Params declares the accepted parameters with kinds, defaults and
	// bounds.
	Params() []params.Spec
	// Target reports whether schedules index nodes or edges.
	Target() Target
	// Caps declares schedule properties (randomized, adaptive).
	Caps() Caps
	// Schedule returns the complete removal order for g — a permutation
	// of node ids (Nodes) or edge ids (Edges) — deterministically from
	// the resolved params and seed. Adaptive attacks simulate removals
	// internally; the returned schedule is still a fixed order.
	// Implementations check ctx at iteration boundaries of superlinear
	// work and return an errs.ErrCanceled-wrapping error once it is done.
	Schedule(ctx context.Context, g *graph.Graph, p params.Params, seed int64) ([]int, error)
}

// Selection names one attack with optional parameters; it round-trips
// through JSON and is the unit scenario.AttackSpec and the CLIs
// validate against the registry (the shared internal/params shape,
// also under the metric and traffic registries).
type Selection = params.Selection

// Registry maps attack names to Attacks (the shared params registry;
// its listings label each attack with its target and caps). Build one
// with NewRegistry; Default() holds every built-in attack.
type Registry = params.Registry[Attack]

// NewRegistry returns an empty registry that also resolves the
// historical strategy spellings ("random", "degree-attack", ... — the
// forms scenario specs were written with before the registry existed)
// onto their registry names, so every such spec still validates.
func NewRegistry() *Registry {
	return params.NewRegistry("attackreg", "attack", map[string]string{
		"":                       "random-failure",
		"random":                 "random-failure",
		"degree-attack":          "degree",
		"betweenness-attack":     "betweenness",
		"adaptive-degree-attack": "adaptive-degree",
	}, traits)
}

// traits labels an attack in listings: its target, then its caps.
func traits(a Attack) string {
	out := []string{a.Target().String()}
	if a.Caps()&CapRandomized != 0 {
		out = append(out, "randomized")
	}
	if a.Caps()&CapAdaptive != 0 {
		out = append(out, "adaptive")
	}
	return "[" + strings.Join(out, ", ") + "]"
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry holding every built-in
// attack (and anything added through Register).
func Default() *Registry { return defaultRegistry }

// Register adds an attack to the default registry.
func Register(a Attack) error { return defaultRegistry.Register(a) }

// Lookup resolves a name (aliases included) in the default registry.
func Lookup(name string) (Attack, error) { return defaultRegistry.Lookup(name) }

// Names lists the default registry, sorted.
func Names() []string { return defaultRegistry.Names() }

// FuncAttack adapts a parameter-spec list plus a schedule function into
// an Attack; it is how every built-in attack is registered and the
// easiest way to add external ones.
type FuncAttack struct {
	AttackName   string
	AttackParams []params.Spec
	AttackTarget Target
	AttackCaps   Caps
	Fn           func(ctx context.Context, g *graph.Graph, p params.Params, seed int64) ([]int, error)
}

// Name implements Attack.
func (f *FuncAttack) Name() string { return f.AttackName }

// Params implements Attack.
func (f *FuncAttack) Params() []params.Spec {
	out := make([]params.Spec, len(f.AttackParams))
	copy(out, f.AttackParams)
	return out
}

// Target implements Attack.
func (f *FuncAttack) Target() Target { return f.AttackTarget }

// Caps implements Attack.
func (f *FuncAttack) Caps() Caps { return f.AttackCaps }

// Schedule implements Attack.
func (f *FuncAttack) Schedule(ctx context.Context, g *graph.Graph, p params.Params, seed int64) ([]int, error) {
	return f.Fn(ctx, g, p, seed)
}
