// Package metricreg is the measurement mirror of the generator registry
// (internal/scenario): every structural/performance metric the paper's
// comparison battery needs is registered by name with typed, validated,
// JSON-serializable parameters, and a fused evaluation engine computes a
// named metric set in shared passes over one frozen CSR snapshot.
//
// Three pieces compose:
//
//   - A Metric interface: name, parameter specs (internal/params), and
//     the capabilities it needs from the evaluation source (CapGraph,
//     CapConnected, CapMasked).
//   - Streaming Accumulators: a metric's New builds one accumulator per
//     evaluation; accumulators that consume breadth-first sweeps
//     (BFSAccumulator) subscribe to a single fused BFS pass — metrics
//     sharing sources share traversals instead of each re-walking the
//     graph — while BulkAccumulators run as standalone tasks and
//     MaskedAccumulators re-evaluate under node-removal masks (the
//     robustness sweep contract).
//   - Registry.Evaluate: plans the fused traversal schedule, fans it out
//     across pooled workspaces, and finalizes every accumulator in set
//     order, so results are byte-identical for any worker count.
package metricreg

import "repro/internal/params"

// Caps declares what a metric needs from the evaluation source beyond
// the frozen CSR snapshot every metric gets.
type Caps uint32

// Capability flags.
const (
	// CapGraph: the metric needs the mutable *graph.Graph (edge lists,
	// MST, betweenness) — a CSR-only source cannot evaluate it.
	CapGraph Caps = 1 << iota
	// CapConnected: the metric consumes the source's connectivity bit,
	// computed once and shared across the set.
	CapConnected
	// CapMasked: the metric's accumulator supports masked
	// (node-removal) re-evaluation, the robustness-sweep contract.
	CapMasked
	// CapTraffic: the metric evaluates a traffic allocation, so the
	// source must carry a demand set (Source.SetTraffic). The shared
	// routing/allocation results are computed once per Source and
	// reused by every traffic metric in the set.
	CapTraffic
)

// Value is one metric's result: a scalar, plus an optional series for
// curve-valued metrics (the expansion profile). For those, Scalar is
// the curve's headline point (its last entry).
type Value struct {
	Scalar float64   `json:"scalar"`
	Series []float64 `json:"series,omitempty"`
}

// Metric is one registered measurement: a name, a typed parameter
// interface, declared capabilities, and a streaming-accumulator
// factory.
type Metric interface {
	// Name is the registry key (e.g. "expansion", "clustering").
	Name() string
	// Params declares the accepted parameters with kinds, defaults and
	// bounds.
	Params() []params.Spec
	// Caps declares what the metric needs from the evaluation source.
	Caps() Caps
	// New builds an accumulator for one evaluation. The given Params
	// have been resolved against the declared specs; seed drives every
	// sampled decision deterministically. The returned accumulator must
	// implement BFSAccumulator or BulkAccumulator (or both roles via
	// MaskedAccumulator for sweep reuse).
	New(p params.Params, seed int64) Accumulator
}

// Selection names one metric of a set with optional parameters; a
// []Selection is the unit Registry.Evaluate plans as one fused
// schedule. It round-trips through JSON (the shared internal/params
// shape, also under the attack and traffic registries).
type Selection = params.Selection

// Registry maps metric names to Metrics: the shared params registry
// plus the fused Evaluate and ResolveMasked. Build one with
// NewRegistry; Default() holds every built-in metric.
type Registry struct {
	*params.Registry[Metric]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{params.NewRegistry[Metric]("metricreg", "metric", nil, nil)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry holding every built-in
// metric (and anything added through Register).
func Default() *Registry { return defaultRegistry }

// Register adds a metric to the default registry.
func Register(m Metric) error { return defaultRegistry.Register(m) }

// Lookup resolves a name in the default registry.
func Lookup(name string) (Metric, error) { return defaultRegistry.Lookup(name) }

// FuncMetric adapts a parameter-spec list plus an accumulator factory
// into a Metric; it is how every built-in metric is registered and the
// easiest way to add external ones.
type FuncMetric struct {
	MetricName   string
	MetricParams []params.Spec
	MetricCaps   Caps
	NewFn        func(p params.Params, seed int64) Accumulator
}

// Name implements Metric.
func (f *FuncMetric) Name() string { return f.MetricName }

// Params implements Metric.
func (f *FuncMetric) Params() []params.Spec {
	out := make([]params.Spec, len(f.MetricParams))
	copy(out, f.MetricParams)
	return out
}

// Caps implements Metric.
func (f *FuncMetric) Caps() Caps { return f.MetricCaps }

// New implements Metric.
func (f *FuncMetric) New(p params.Params, seed int64) Accumulator { return f.NewFn(p, seed) }
