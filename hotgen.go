// Package hotgen is the public facade of this repository: an
// optimization-driven framework for designing and generating realistic
// Internet topologies, reproducing Alderson, Doyle, Govindan &
// Willinger, "Toward an Optimization-Driven Framework for Designing and
// Generating Realistic Internet Topologies" (HotNets-II, 2003).
//
// The primary entry point is the scenario API: every topology model in
// the repository is registered by name in a Generator registry with
// typed, validated, JSON-serializable parameters, and a declarative
// Scenario (generate + measure + route + attack stages, replicated over
// seeds) runs through an Engine that plumbs context.Context through
// every long-running path, caches frozen CSR snapshots by scenario
// identity, and reduces batches in a fixed order so output is
// byte-identical at any worker count. See Generator, Scenario,
// NewEngine, and cmd/toposcenario; `topogen -list` enumerates the
// registry. Measurement mirrors generation: every metric is registered
// by name in a metric registry with typed parameters, and named metric
// sets are evaluated as one fused schedule over a shared frozen
// snapshot — see Metric, MetricSelection, EvaluateMetrics, and
// `topostats -list`. Attacks mirror both: every failure/attack strategy
// (node- or edge-removal, deterministic or randomized) is registered by
// name with typed parameters, and the robustness sweep engine traces
// metric curves along each schedule — the plain LCC curve through a
// reverse union-find pass that computes the whole trajectory in
// near-linear time, other masked metric sets through masked
// re-evaluation — see Attack, RunRobustnessSweep, and
// `topoattack -list`. Traffic completes the registry quartet: every
// demand model (§2.2 makes population-gravity demand the canonical
// evaluation input) is registered by name with typed parameters, feeds
// the ISP provisioner and the peering optimizer, and drives the
// scenario engine's traffic stage, whose volume-aware max-min fair
// allocator reports throughput/fairness through traffic-capable
// registry metrics — see DemandModel, GenerateDemandMatrix,
// TrafficSpec, and `toposcenario -list`. The free functions below
// remain as direct, stable wrappers over the same internals.
//
// The library is organized as the paper is:
//
//   - FKP and the generalized HOT growth framework (the paper's §3.1
//     theoretical support and the core modeling idea) — see FKP, GrowHOT,
//     ObjectiveTerm, Constraint.
//   - Buy-at-bulk access network design with a randomized incremental
//     approximation and baselines (§4) — see AccessInstance,
//     MMPIncremental, SampleAndAugment.
//   - Single-ISP design from population centers with cost- or
//     profit-based formulations (§2.2) — see BuildISP.
//   - Multi-ISP assembly with optimized peering and AS-graph extraction
//     (§2.3) — see AssembleInternet.
//   - The comparison metric suite and descriptive baseline generators the
//     paper argues against (§1) — see ComputeProfile and the Gen*
//     functions.
//
// Under all of it sits a high-performance graph kernel: Freeze snapshots
// a Graph into an immutable CSR (compressed sparse row) layout, and
// pooled Workspace buffers make the Dijkstra/BFS/eccentricity kernels
// allocation-free and safe to fan out across goroutines. BFS also
// parallelizes inside a single source above 2^18 nodes, sharding its
// bottom-up levels (CSR.BFSParallel forces a width), and the metric
// engine's per-source fan-out splits the worker budget with those
// shards so the two levels compose without oversubscription.
// CSR.DijkstraTo stops a traversal once a target list is settled, which
// is how routing pins each source's paths; a single target is found by a
// bidirectional search that meets in the middle. The routing, metric,
// robustness and experiment layers all run on this kernel, with every
// parallel reduction performed in a fixed order and deterministic
// tie-breaks inside each traversal, so results are byte-identical at
// any worker count (see ExperimentOptions.Workers).
//
// Everything is deterministic given explicit seeds and uses only the Go
// standard library.
package hotgen

import (
	"context"
	"net/http"

	"repro/internal/access"
	"repro/internal/anonymize"
	"repro/internal/attackreg"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/isp"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/peering"
	"repro/internal/robust"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/trafficreg"
	"repro/internal/validate"
)

// Sentinel errors shared by every layer; test with errors.Is.
var (
	// ErrBadParam marks an invalid or out-of-range parameter value.
	ErrBadParam = errs.ErrBadParam
	// ErrCanceled marks work abandoned because its context was canceled.
	ErrCanceled = errs.ErrCanceled
	// ErrInfeasible marks a well-formed instance with no solution.
	ErrInfeasible = errs.ErrInfeasible
)

// Scenario API: the registry-driven pipeline over the CSR kernel.
type (
	// Generator is one registered topology model: name, typed parameter
	// specs, and a context-aware generation function.
	Generator = scenario.Generator
	// FuncGenerator adapts a function plus specs into a Generator.
	FuncGenerator = scenario.FuncGenerator
	// GeneratorRegistry maps model names to Generators.
	GeneratorRegistry = scenario.Registry
	// ParamSpec declares one generator parameter (kind, default, bounds).
	ParamSpec = scenario.ParamSpec
	// GenParams carries generator arguments by name (JSON numbers).
	GenParams = scenario.Params
	// Scenario is one declarative generate/measure/route/attack unit,
	// replicated over seeds; it round-trips through JSON.
	Scenario = scenario.Scenario
	// GenerateSpec names the scenario's generator and parameters.
	GenerateSpec = scenario.GenerateSpec
	// MeasureSpec selects measurement families.
	MeasureSpec = scenario.MeasureSpec
	// RouteSpec evaluates the topology under a random traffic matrix.
	RouteSpec = scenario.RouteSpec
	// TrafficSpec evaluates the topology under a registry demand model
	// (sites, demand matrix, volume-aware max-min fair allocation).
	TrafficSpec = scenario.TrafficSpec
	// TrafficSummary is the traffic stage's allocation summary.
	TrafficSummary = scenario.TrafficSummary
	// AttackSpec runs a robustness sweep.
	AttackSpec = scenario.AttackSpec
	// ScenarioTimelineSpec replays an ordered failure/repair/traffic
	// event schedule against the generated topology — the temporal
	// stage.
	ScenarioTimelineSpec = scenario.TimelineSpec
	// ScenarioTimelineEvent is one ordered event of a scenario timeline
	// (fail-node, fail-edge, repair, capacity-set, demand-switch).
	ScenarioTimelineEvent = scenario.TimelineEventSpec
	// ScenarioTimelinePoint is one timeline event's output row.
	ScenarioTimelinePoint = scenario.TimelinePoint
	// Engine executes scenarios with cancellation, a frozen-snapshot
	// cache, and order-reduced (worker-count-independent) batches.
	Engine = scenario.Engine
	// EngineOptions tune a batch run.
	EngineOptions = scenario.Options
	// ScenarioResult is one scenario's replicated output.
	ScenarioResult = scenario.Result
	// ScenarioRepResult is one replication's output.
	ScenarioRepResult = scenario.RepResult
	// EngineCacheStats is a point-in-time snapshot of the engine's
	// byte-budgeted snapshot cache (hits, coalesced waits, misses,
	// evictions, resident bytes) — see Engine.CacheStats and
	// Engine.SetCacheBudget.
	EngineCacheStats = scenario.CacheStats
)

// Scenario service: the resident counterpart of the Engine. One shared
// engine is hosted behind an HTTP/JSON job API (submit spec documents,
// poll incremental results, cancel through the threaded context, read
// registry and cache/job telemetry) — see cmd/toposcenariod for the
// daemon and `toposcenario -server` for the CLI client mode.
type (
	// ScenarioServiceConfig tunes a server: engine, queue depth,
	// executor count, per-job workers and timeout.
	ScenarioServiceConfig = service.Config
	// ScenarioServer is the http.Handler hosting the job API.
	ScenarioServer = service.Server
	// ScenarioServiceClient is the Go client for a running daemon.
	ScenarioServiceClient = service.Client
	// ScenarioJobStatus is one job's wire status (state, progress,
	// results).
	ScenarioJobStatus = service.JobStatus
	// ScenarioServiceStatusz is the daemon's monitoring snapshot.
	ScenarioServiceStatusz = service.Statusz
	// ScenarioRegistryInfo enumerates every component a spec can name.
	ScenarioRegistryInfo = service.RegistryInfo
)

// NewScenarioServer builds a scenario service over cfg and starts its
// executor pool; drain it with its Shutdown method.
func NewScenarioServer(cfg ScenarioServiceConfig) *ScenarioServer { return service.New(cfg) }

// NewScenarioServiceClient returns a client for the daemon at baseURL
// (nil hc uses http.DefaultClient).
func NewScenarioServiceClient(baseURL string, hc *http.Client) *ScenarioServiceClient {
	return service.NewClient(baseURL, hc)
}

// Metric registry: the measurement mirror of the generator registry.
// Every metric is registered by name with typed parameters, and a set
// of metrics is evaluated as one fused schedule — BFS-consuming metrics
// share a single sweep over one frozen CSR snapshot.
type (
	// Metric is one registered measurement: name, typed parameter
	// specs, declared capabilities, and an accumulator factory.
	Metric = metricreg.Metric
	// FuncMetric adapts specs plus an accumulator factory into a Metric.
	FuncMetric = metricreg.FuncMetric
	// MetricRegistry maps metric names to Metrics.
	MetricRegistry = metricreg.Registry
	// MetricSelection names one metric of a set with optional params.
	MetricSelection = metricreg.Selection
	// MetricValue is one metric's result (scalar + optional series).
	MetricValue = metricreg.Value
	// MetricSource is what a metric set is evaluated against: a frozen
	// CSR, optionally its graph, and a shared connectivity bit.
	MetricSource = metricreg.Source
	// MetricEvalOptions tune one evaluation (workers, seed, stats).
	MetricEvalOptions = metricreg.Options
	// MetricEvalStats reports the fused schedule's traversal accounting.
	MetricEvalStats = metricreg.EvalStats
	// MetricCaps declares what a metric needs from its source.
	MetricCaps = metricreg.Caps
)

// Metric capability flags.
const (
	// MetricCapGraph marks metrics needing the mutable *Graph.
	MetricCapGraph = metricreg.CapGraph
	// MetricCapConnected marks metrics consuming the shared
	// connectivity bit.
	MetricCapConnected = metricreg.CapConnected
	// MetricCapMasked marks metrics supporting masked (node-removal)
	// re-evaluation — the robustness-sweep contract.
	MetricCapMasked = metricreg.CapMasked
	// MetricCapTraffic marks metrics evaluating a traffic allocation;
	// the source must carry a demand set (MetricSource.SetTraffic).
	MetricCapTraffic = metricreg.CapTraffic
)

// MetricNames lists every registered metric name, sorted.
func MetricNames() []string { return metricreg.Names() }

// RegisterMetric adds a custom metric to the default registry.
func RegisterMetric(m Metric) error { return metricreg.Register(m) }

// LookupMetric resolves a metric name in the default registry.
func LookupMetric(name string) (Metric, error) { return metricreg.Lookup(name) }

// NewMetricSource builds an evaluation source: pass both to reuse an
// existing CSR, g alone to freeze internally, or c alone for a
// CSR-only source.
func NewMetricSource(g *Graph, c *CSR) *MetricSource { return metricreg.NewSource(g, c) }

// EvaluateMetrics computes a named metric set against src as one fused
// schedule on the default registry; results are keyed by metric name
// and byte-identical for any worker count.
func EvaluateMetrics(ctx context.Context, src *MetricSource, set []MetricSelection, opt MetricEvalOptions) (map[string]MetricValue, error) {
	return metricreg.Evaluate(ctx, src, set, opt)
}

// ProfileMetricSet is the metric set ComputeProfile evaluates, as a
// starting point for custom sets.
func ProfileMetricSet() []MetricSelection { return metrics.ProfileSet() }

// NewEngine returns a scenario engine over reg (nil = the default
// registry holding every built-in model).
func NewEngine(reg *GeneratorRegistry) *Engine { return scenario.NewEngine(reg) }

// Generators lists every registered model name, sorted.
func Generators() []string { return scenario.Names() }

// RegisterGenerator adds a custom model to the default registry.
func RegisterGenerator(g Generator) error { return scenario.Register(g) }

// LookupGenerator resolves a model name in the default registry.
func LookupGenerator(name string) (Generator, error) { return scenario.Lookup(name) }

// GenerateByName validates params against the named model's specs and
// generates a topology, honoring ctx.
func GenerateByName(ctx context.Context, name string, p GenParams) (*Graph, error) {
	return scenario.Default().GenerateByName(ctx, name, p)
}

// ParseScenarioSpec decodes a scenario spec document: one Scenario
// object, a JSON array, or {"scenarios": [...]}.
func ParseScenarioSpec(data []byte) ([]Scenario, error) { return scenario.ParseSpec(data) }

// Graph and topology substrate.
type (
	// Graph is the undirected weighted topology representation shared by
	// all generators.
	Graph = graph.Graph
	// Node is a graph node annotation (role, coordinates, capacity).
	Node = graph.Node
	// Edge is an undirected link with weight, capacity and cable type.
	Edge = graph.Edge
	// NodeKind labels a node's role in the ISP hierarchy.
	NodeKind = graph.NodeKind
	// Point is a planar location.
	Point = geom.Point
	// Rect is an axis-aligned region.
	Rect = geom.Rect
)

// Node kinds.
const (
	KindUnknown  = graph.KindUnknown
	KindCore     = graph.KindCore
	KindPOP      = graph.KindPOP
	KindConc     = graph.KindConc
	KindCustomer = graph.KindCustomer
	KindPeering  = graph.KindPeering
)

// NewGraph returns an empty graph with a capacity hint.
func NewGraph(n int) *Graph { return graph.New(n) }

// Compute kernel: immutable snapshots plus pooled scratch buffers.
type (
	// CSR is an immutable compressed-sparse-row snapshot of a Graph,
	// produced by Graph.Freeze; its traversal kernels are safe to share
	// across goroutines.
	CSR = graph.CSR
	// Workspace owns the scratch buffers (distances, parents, heap,
	// queue, visited epochs) one goroutine's kernel calls run in.
	Workspace = graph.Workspace
)

// GetWorkspace takes a pooled Workspace sized for n-node graphs; pair
// with its Release method.
func GetWorkspace(n int) *Workspace { return graph.GetWorkspace(n) }

// NewWorkspace returns an unpooled Workspace sized for n-node graphs.
func NewWorkspace(n int) *Workspace { return graph.NewWorkspace(n) }

// UnitSquare is the canonical generation region.
var UnitSquare = geom.UnitSquare

// Core contribution: FKP and the generalized HOT framework.
type (
	// FKPConfig parameterizes the Fabrikant–Koutsoupias–Papadimitriou
	// incremental tradeoff model.
	FKPConfig = core.FKPConfig
	// HOTConfig parameterizes the generalized optimization-driven growth.
	HOTConfig = core.HOTConfig
	// ObjectiveTerm is one weighted component of the attachment cost.
	ObjectiveTerm = core.ObjectiveTerm
	// Constraint filters infeasible attachments.
	Constraint = core.Constraint
	// GrowthStats summarizes a GrowHOT run.
	GrowthStats = core.GrowthStats
	// TopologyClass is the star / power-law tree / exponential tree
	// classification.
	TopologyClass = core.TopologyClass
	// CentralityMode selects the FKP centrality definition.
	CentralityMode = core.CentralityMode
	// DistanceTerm prices last-mile distance.
	DistanceTerm = core.DistanceTerm
	// CentralityTerm prices hops to the network core.
	CentralityTerm = core.CentralityTerm
	// LoadTerm prices attachment-target congestion.
	LoadTerm = core.LoadTerm
	// MaxDegreeConstraint is the router port limit.
	MaxDegreeConstraint = core.MaxDegreeConstraint
	// MaxLengthConstraint is the link reach limit.
	MaxLengthConstraint = core.MaxLengthConstraint
	// GrowthSearch selects the candidate-scan implementation of the
	// growth loops (FKPConfig.Search, HOTConfig.Search); results are
	// bit-identical whichever scan runs.
	GrowthSearch = core.GrowthSearch
)

// Growth candidate-scan implementations.
const (
	// SearchAuto (the zero value) uses the grid index when eligible and
	// large enough to amortize it.
	SearchAuto = core.SearchAuto
	// SearchExhaustive forces the O(n) per-arrival reference scan.
	SearchExhaustive = core.SearchExhaustive
	// SearchGrid forces the ~O(log n) per-arrival grid index where
	// eligible.
	SearchGrid = core.SearchGrid
)

// FKP grows a tree per the FKP model.
func FKP(cfg FKPConfig) (*Graph, error) { return core.FKP(cfg) }

// FKPContext is FKP with cancellation checked at every arrival.
func FKPContext(ctx context.Context, cfg FKPConfig) (*Graph, error) {
	return core.FKPContext(ctx, cfg)
}

// GrowHOT runs the generalized incremental optimization growth.
func GrowHOT(cfg HOTConfig) (*Graph, *GrowthStats, error) { return core.GrowHOT(cfg) }

// GrowHOTContext is GrowHOT with cancellation checked at every arrival.
func GrowHOTContext(ctx context.Context, cfg HOTConfig) (*Graph, *GrowthStats, error) {
	return core.GrowHOTContext(ctx, cfg)
}

// Classify assigns a TopologyClass to a generated graph.
func Classify(g *Graph) TopologyClass { return core.Classify(g) }

// Buy-at-bulk access design (§4).
type (
	// CableType is one {capacity, cost} catalog entry.
	CableType = access.CableType
	// Catalog is an economies-of-scale-ordered cable list.
	Catalog = access.Catalog
	// AccessInstance is one access design problem.
	AccessInstance = access.Instance
	// AccessNetwork is a solved access design.
	AccessNetwork = access.Network
	// AccessInstanceConfig parameterizes random instances.
	AccessInstanceConfig = access.InstanceConfig
	// AccessCustomer is a demand point.
	AccessCustomer = access.Customer
)

// DefaultCatalog returns the paper-footnote-8 style cable catalog.
func DefaultCatalog() Catalog { return access.DefaultCatalog() }

// RandomAccessInstance draws a random access design instance.
func RandomAccessInstance(cfg AccessInstanceConfig) (*AccessInstance, error) {
	return access.RandomInstance(cfg)
}

// MMPIncremental solves an instance with the randomized incremental
// cost-distance heuristic (paper reference [24]).
func MMPIncremental(in *AccessInstance, seed int64) (*AccessNetwork, error) {
	return access.MMPIncremental(in, seed)
}

// SampleAndAugment solves an instance with stage-based randomized
// sample-and-augment.
func SampleAndAugment(in *AccessInstance, seed int64, p float64) (*AccessNetwork, error) {
	return access.SampleAndAugment(in, seed, p)
}

// SingleCableMST is the economies-of-scale-blind baseline.
func SingleCableMST(in *AccessInstance) (*AccessNetwork, error) {
	return access.SingleCableMST(in)
}

// DirectStar is the no-sharing baseline.
func DirectStar(in *AccessInstance) (*AccessNetwork, error) {
	return access.DirectStar(in)
}

// AccessLowerBound returns a valid lower bound on optimal instance cost.
func AccessLowerBound(in *AccessInstance) float64 { return access.LowerBound(in) }

// AugmentTwoEdgeConnected adds redundancy per the paper's footnote 7.
func AugmentTwoEdgeConnected(in *AccessInstance, net *AccessNetwork) int {
	return access.AugmentTwoEdgeConnected(in, net)
}

// RingMetro solves an access instance under a SONET-style Level-2 ring
// technology (§2.4): customers join protected rings through the core.
func RingMetro(in *AccessInstance, ringSize int) (*AccessNetwork, error) {
	return access.RingMetro(in, ringSize)
}

// RingVsTreeReport quantifies the Level-2 technology tradeoff of §2.4.
type RingVsTreeReport = access.RingVsTreeReport

// CompareRingVsTree solves an instance as an MMP tree and as SONET rings
// and reports the cost/shape tradeoff.
func CompareRingVsTree(in *AccessInstance, seed int64, ringSize int) (*RingVsTreeReport, error) {
	return access.CompareRingVsTree(in, seed, ringSize)
}

// Traffic and economy substrate (§2.2 inputs).
type (
	// Geography is a set of population centers.
	Geography = traffic.Geography
	// GeographyConfig parameterizes synthetic geography.
	GeographyConfig = traffic.GeographyConfig
	// City is one population center.
	City = traffic.City
	// DemandMatrix is symmetric city-to-city demand.
	DemandMatrix = traffic.DemandMatrix
	// GravityConfig parameterizes the gravity demand model.
	GravityConfig = traffic.GravityConfig
)

// Traffic-model registry: the demand mirror of the generator, metric
// and attack registries. Every demand model (gravity, uniform,
// zipf-hotspot, bimodal, single-epicenter) is registered by name with
// typed parameters; the ISP provisioner, the peering optimizer, and the
// scenario engine's traffic stage all generate demand through it.
type (
	// DemandModel is one registered traffic model: name, typed
	// parameter specs, and a matrix-generation function.
	DemandModel = trafficreg.DemandModel
	// FuncDemandModel adapts specs plus a generation function into a
	// DemandModel.
	FuncDemandModel = trafficreg.FuncModel
	// TrafficRegistry maps demand-model names to DemandModels.
	TrafficRegistry = trafficreg.Registry
	// TrafficSelection names one demand model with optional params; the
	// zero value is gravity with its defaults.
	TrafficSelection = trafficreg.Selection
	// TrafficParams carries demand-model arguments by name (JSON
	// numbers).
	TrafficParams = trafficreg.Params
)

// DemandModels lists every registered demand-model name, sorted.
func DemandModels() []string { return trafficreg.Names() }

// RegisterDemandModel adds a custom demand model to the default
// registry.
func RegisterDemandModel(m DemandModel) error { return trafficreg.Register(m) }

// LookupDemandModel resolves a demand-model name ("" is gravity) in the
// default registry.
func LookupDemandModel(name string) (DemandModel, error) { return trafficreg.Lookup(name) }

// GenerateDemandMatrix validates sel against the named model's specs
// and generates the city-to-city demand matrix for geo, honoring ctx.
func GenerateDemandMatrix(ctx context.Context, geo *Geography, sel TrafficSelection, seed int64) (DemandMatrix, error) {
	return trafficreg.GenerateDemand(ctx, geo, sel, seed)
}

// GraphTrafficDemands lifts a topology's top-degree nodes into traffic
// sites and generates sel's demand between them — the demand set the
// scenario traffic stage allocates, also usable directly with
// MaxMinFair or MetricSource.SetTraffic.
func GraphTrafficDemands(ctx context.Context, g *Graph, sel TrafficSelection, sites int, seed int64) ([]Demand, error) {
	return trafficreg.GraphDemands(ctx, g, sel, sites, seed)
}

// GenerateGeography draws a synthetic national geography.
func GenerateGeography(cfg GeographyConfig) (*Geography, error) {
	return traffic.GenerateGeography(cfg)
}

// GravityDemand builds the gravity-model demand matrix.
func GravityDemand(g *Geography, cfg GravityConfig) DemandMatrix {
	return traffic.GravityDemand(g, cfg)
}

// ArrivalPoints draws population-weighted arrival locations from a
// geography, for use as HOTConfig.Arrivals (§2.1: customers concentrate
// in the big cities).
func ArrivalPoints(g *Geography, n int, spread float64, seed int64) []Point {
	return traffic.ArrivalPoints(g, n, spread, seed)
}

// ISP design (§2.2).
type (
	// ISPConfig parameterizes the single-ISP designer.
	ISPConfig = isp.Config
	// ISPDesign is a built ISP.
	ISPDesign = isp.Design
	// Formulation selects cost-based vs profit-based design.
	Formulation = isp.Formulation
)

// ISP formulations.
const (
	CostBased   = isp.CostBased
	ProfitBased = isp.ProfitBased
)

// BuildISP designs a single ISP's router-level topology.
func BuildISP(cfg ISPConfig) (*ISPDesign, error) { return isp.Build(cfg) }

// BackboneReport describes routed load and cable provisioning on the WAN.
type BackboneReport = isp.BackboneReport

// ProvisionBackbone routes inter-metro gravity demand over a built ISP
// and installs adequate cable configurations on the backbone links
// (footnote 1: topology = connectivity + capacity).
func ProvisionBackbone(des *ISPDesign, geo *Geography, cat Catalog, demandScale float64) (*BackboneReport, error) {
	return isp.ProvisionBackbone(des, geo, cat, demandScale)
}

// ProvisionBackboneContext is ProvisionBackbone under any registered
// demand model (the zero TrafficSelection is gravity with its
// defaults), with cancellation; seed feeds seed-dependent demand models
// (pass the ISPConfig.Seed the design was built with).
func ProvisionBackboneContext(ctx context.Context, des *ISPDesign, geo *Geography, cat Catalog, demandScale float64, model TrafficSelection, seed int64) (*BackboneReport, error) {
	return isp.ProvisionBackboneContext(ctx, des, geo, cat, demandScale, model, seed)
}

// Internet assembly (§2.3).
type (
	// InternetConfig parameterizes multi-ISP assembly.
	InternetConfig = peering.Config
	// Internet is the assembled multi-ISP topology.
	Internet = peering.Internet
	// PeeringLink is one inter-ISP interconnect.
	PeeringLink = peering.PeeringLink
	// TransitConfig parameterizes customer-provider assignment.
	TransitConfig = peering.TransitConfig
	// TransitResult is the tiered customer-provider structure.
	TransitResult = peering.TransitResult
	// TransitLink is one customer-provider relationship.
	TransitLink = peering.TransitLink
)

// AssembleInternet builds the multi-ISP internet model.
func AssembleInternet(cfg InternetConfig) (*Internet, error) {
	return peering.Assemble(cfg)
}

// AssignTransit layers customer-provider relationships (and tiers) onto
// an assembled internet, extending the AS graph with transit edges.
func AssignTransit(inet *Internet, cfg TransitConfig) (*TransitResult, error) {
	return peering.AssignTransit(inet, cfg)
}

// ValleyFreeResult reports Gao–Rexford policy reachability on an AS
// relationship graph.
type ValleyFreeResult = peering.ValleyFreeResult

// ValleyFree computes valley-free (customer/provider/peer policy)
// reachability and AS path lengths over a transit result.
func ValleyFree(tr *TransitResult) (*ValleyFreeResult, error) {
	return peering.ValleyFree(tr)
}

// Descriptive baseline generators (§1).
var (
	// GenErdosRenyiGNP samples G(n,p).
	GenErdosRenyiGNP = gen.ErdosRenyiGNP
	// GenErdosRenyiGNM samples G(n,m).
	GenErdosRenyiGNM = gen.ErdosRenyiGNM
	// GenWaxman samples the Waxman geographic random graph.
	GenWaxman = gen.Waxman
	// GenBarabasiAlbert grows a preferential-attachment graph.
	GenBarabasiAlbert = gen.BarabasiAlbert
	// GenGLP grows a generalized-linear-preference graph.
	GenGLP = gen.GLP
	// GenTransitStub builds a GT-ITM style hierarchy.
	GenTransitStub = gen.TransitStub
	// GenRandomGeometric connects points within a radius.
	GenRandomGeometric = gen.RandomGeometric
	// GenConfigurationModel rewires a given degree sequence at random —
	// the purest descriptive generator.
	GenConfigurationModel = gen.ConfigurationModel
	// GenInetLike samples a power-law degree sequence and realizes it,
	// patching connectivity (the paper's reference [21] pipeline).
	GenInetLike = gen.InetLike
)

// TransitStubConfig parameterizes GenTransitStub.
type TransitStubConfig = gen.TransitStubConfig

// Metrics, statistics, routing, robustness.
type (
	// Profile bundles the comparison metrics of one topology.
	Profile = metrics.Profile
	// TailClassification is the power-law vs exponential verdict.
	TailClassification = stats.TailClassification
	// Demand is one traffic requirement.
	Demand = routing.Demand
	// RouteResult reports a routing evaluation.
	RouteResult = routing.Result
)

// Attack registry: the failure/attack mirror of the generator and
// metric registries. Every node- or edge-removal strategy is registered
// by name with typed parameters, and the sweep engine traces metric
// curves along each schedule — the plain LCC curve through one reverse
// union-find pass (near-linear in the whole schedule), any other masked
// metric set through masked re-evaluation, bit-for-bit identical on the
// LCC curve.
type (
	// Attack is one registered removal strategy: name, typed parameter
	// specs, a node/edge target, and a schedule function.
	Attack = attackreg.Attack
	// FuncAttack adapts specs plus a schedule function into an Attack.
	FuncAttack = attackreg.FuncAttack
	// AttackRegistry maps attack names to Attacks.
	AttackRegistry = attackreg.Registry
	// AttackSelection names one attack with optional params.
	AttackSelection = attackreg.Selection
	// AttackParams carries attack arguments by name (JSON numbers).
	AttackParams = attackreg.Params
	// AttackTarget reports whether schedules index nodes or edges.
	AttackTarget = attackreg.Target
	// AttackCaps declares schedule properties (randomized, adaptive).
	AttackCaps = attackreg.Caps
	// RobustnessSweepSpec declares one registry-driven robustness sweep.
	RobustnessSweepSpec = robust.SweepSpec
	// TimelineEvent is one connectivity event of a failure/repair
	// timeline: an op applied to a node or edge id.
	TimelineEvent = robust.TimelineEvent
	// TimelineOp is a timeline event kind (fail/repair × node/edge).
	TimelineOp = robust.TimelineOp
	// TimelineMode selects the timeline evaluation path (auto, masked,
	// epoch).
	TimelineMode = robust.TimelineMode
)

// Attack targets and capability flags.
const (
	// AttackNodes marks node-removal schedules.
	AttackNodes = attackreg.Nodes
	// AttackEdges marks edge-removal schedules.
	AttackEdges = attackreg.Edges
	// AttackCapRandomized marks seed-dependent schedules (averaged over
	// sweep trials).
	AttackCapRandomized = attackreg.CapRandomized
	// AttackCapAdaptive marks attacks that re-score the residual graph.
	AttackCapAdaptive = attackreg.CapAdaptive
)

// Timeline event kinds and evaluation modes.
const (
	// TimelineFailNode removes a node and its incident edges.
	TimelineFailNode = robust.OpFailNode
	// TimelineFailEdge removes one edge; endpoints stay present.
	TimelineFailEdge = robust.OpFailEdge
	// TimelineRepairNode restores a failed node.
	TimelineRepairNode = robust.OpRepairNode
	// TimelineRepairEdge restores a failed edge.
	TimelineRepairEdge = robust.OpRepairEdge
	// TimelineAuto picks the epoch engine for plain LCC trajectories
	// and the masked path otherwise.
	TimelineAuto = robust.TimelineAuto
	// TimelineMasked re-evaluates every metric from scratch per event.
	TimelineMasked = robust.TimelineMasked
	// TimelineEpoch forces the epoch-based dynamic-connectivity engine
	// (LCC only).
	TimelineEpoch = robust.TimelineEpoch
)

// AttackNames lists every registered attack name, sorted.
func AttackNames() []string { return attackreg.Names() }

// RegisterAttack adds a custom attack to the default registry.
func RegisterAttack(a Attack) error { return attackreg.Register(a) }

// LookupAttack resolves an attack name (legacy aliases included) in the
// default registry.
func LookupAttack(name string) (Attack, error) { return attackreg.Lookup(name) }

// RunRobustnessSweep executes one registry-driven sweep spec: the named
// attack's schedule is computed per trial and the metric set traced
// along it, with curves byte-identical for any worker count. Any
// masked-capable metric set (MetricCapMasked, e.g. "lcc",
// "mean-degree") can be traced; edge attacks trace only "lcc". Pass a
// pre-frozen CSR to skip re-freezing (nil freezes internally).
func RunRobustnessSweep(ctx context.Context, g *Graph, c *CSR, spec RobustnessSweepSpec, seed int64) ([]RobustnessMetricCurve, error) {
	return robust.RunSweepContext(ctx, g, c, spec, seed)
}

// RunConnectivityTimeline traces a metric set along a failure/repair
// timeline over a frozen snapshot: Values[0] is the intact topology,
// Values[k] the state after the first k events. Monotone runs of fails
// or repairs are replayed through one near-linear reverse union-find
// pass each (the epoch-based dynamic-connectivity engine), pinned
// bit-identical to per-event from-scratch evaluation by the parity
// tests. See also ScenarioTimelineSpec for the declarative surface.
func RunConnectivityTimeline(ctx context.Context, c *CSR, events []TimelineEvent, metrics []string, mode TimelineMode, seed int64) ([]RobustnessMetricCurve, error) {
	return robust.RunTimelineContext(ctx, c, events, metrics, mode, seed)
}

// ParseTimelineMode maps a timeline mode name ("auto", "masked",
// "epoch") to its TimelineMode.
func ParseTimelineMode(name string) (TimelineMode, error) {
	return robust.ParseTimelineMode(name)
}

// RobustnessAttackGap summarizes robust-yet-fragile for any registered
// attack: the mean gap between the random-failure curve and the named
// attack's curve over the given fractions. An empty fraction list wraps
// ErrBadParam.
func RobustnessAttackGap(ctx context.Context, g *Graph, c *CSR, attack string, p AttackParams, fracs []float64, trials int, seed int64, workers int) (float64, error) {
	return robust.AttackGapContext(ctx, g, c, attack, p, fracs, trials, seed, workers)
}

// ComputeProfile evaluates the full [30]-style metric suite.
func ComputeProfile(g *Graph, seed int64) Profile { return metrics.ComputeProfile(g, seed) }

// ComputeProfileContext is ComputeProfile with cancellation and an
// optional pre-frozen snapshot (nil freezes internally).
func ComputeProfileContext(ctx context.Context, g *Graph, c *CSR, seed int64, workers int) (Profile, error) {
	return metrics.ProfileContext(ctx, g, c, seed, workers)
}

// ClassifyTail decides power-law vs exponential on a degree sample.
func ClassifyTail(degrees []int) TailClassification { return stats.ClassifyTail(degrees) }

// RouteShortestPaths routes demands ignoring capacity.
func RouteShortestPaths(g *Graph, demands []Demand) (*RouteResult, error) {
	return routing.RouteShortestPaths(g, demands)
}

// RouteShortestPathsContext is RouteShortestPaths with cancellation and
// an optional pre-frozen snapshot (nil freezes internally).
func RouteShortestPathsContext(ctx context.Context, g *Graph, c *CSR, demands []Demand) (*RouteResult, error) {
	return routing.RouteShortestPathsContext(ctx, g, c, demands)
}

// RouteCapacitated routes demands with greedy admission control.
func RouteCapacitated(g *Graph, demands []Demand) (*RouteResult, error) {
	return routing.RouteCapacitated(g, demands)
}

// RouteCapacitatedContext is RouteCapacitated with cancellation and an
// optional pre-frozen snapshot (nil freezes internally).
func RouteCapacitatedContext(ctx context.Context, g *Graph, c *CSR, demands []Demand) (*RouteResult, error) {
	return routing.RouteCapacitatedContext(ctx, g, c, demands)
}

// MaxMinResult is the outcome of fair rate allocation.
type MaxMinResult = routing.MaxMinResult

// MaxMinFair computes the max-min fair (water-filling) rate allocation
// of elastic demands over their shortest paths.
func MaxMinFair(g *Graph, demands []Demand) (*MaxMinResult, error) {
	return routing.MaxMinFair(g, demands)
}

// MaxMinFairContext is MaxMinFair with cancellation and an optional
// pre-frozen snapshot (nil freezes internally).
func MaxMinFairContext(ctx context.Context, g *Graph, c *CSR, demands []Demand) (*MaxMinResult, error) {
	return routing.MaxMinFairContext(ctx, g, c, demands)
}

// ExactAccessOPT computes the exact optimal buy-at-bulk tree cost for a
// tiny instance (<= access.MaxExactCustomers customers) by exhaustive
// Prüfer enumeration — the ground truth the heuristics are validated
// against.
func ExactAccessOPT(in *AccessInstance) (float64, []int, error) {
	return access.ExactTreeOPT(in)
}

// RobustnessMetricCurve is one masked metric's values across a sweep's
// removal fractions.
type RobustnessMetricCurve = robust.MetricCurve

// Experiments: the E1–E9 harness used by cmd/experiments and the benches.
type (
	// ExperimentOptions tunes experiment scale and seeds.
	ExperimentOptions = experiments.Options
	// ExperimentTable is one experiment's formatted result.
	ExperimentTable = experiments.Table
	// ExperimentRunner is one experiment entry point.
	ExperimentRunner = experiments.Runner
)

// Experiments returns all experiment runners E1–E10 in order.
func Experiments() []ExperimentRunner { return experiments.All() }

// Anonymization (§5 research agenda).
type (
	// AnonymizeOptions configure topology scrubbing.
	AnonymizeOptions = anonymize.Options
	// TopologySummary is the aggregate, identity-free characterization of
	// a topology a provider could publish.
	TopologySummary = anonymize.Summary
)

// Anonymize returns an identity-scrubbed copy of g; connectivity (and so
// every structural metric) is preserved exactly.
func Anonymize(g *Graph, opts AnonymizeOptions) *Graph { return anonymize.Scrub(g, opts) }

// SummarizeTopology computes the publishable aggregate characterization.
func SummarizeTopology(g *Graph, seed int64) TopologySummary { return anonymize.Summarize(g, seed) }

// Validation (§5 research agenda).
type (
	// MetricVector is the standardized topology characterization used
	// for model validation.
	MetricVector = validate.MetricVector
	// TopologyComparison scores a candidate against a reference.
	TopologyComparison = validate.Comparison
	// Interval is a bootstrap confidence interval.
	Interval = validate.Interval
)

// MeasureTopology computes the validation metric vector.
func MeasureTopology(g *Graph, seed int64) MetricVector { return validate.Measure(g, seed) }

// CompareTopologies scores how structurally dissimilar two topologies
// are across the full metric suite (plus degree-distribution KS).
func CompareTopologies(ref, cand *Graph, seed int64) TopologyComparison {
	return validate.Compare(ref, cand, seed)
}

// ResilienceCI bootstraps a confidence interval for the resilience
// metric, so comparisons can be judged against sampling noise.
func ResilienceCI(g *Graph, reps int, seed int64) Interval {
	return validate.ResilienceCI(g, reps, seed)
}
