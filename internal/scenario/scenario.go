package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/attackreg"
	"repro/internal/errs"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/rng"
	"repro/internal/robust"
	"repro/internal/table"
	"repro/internal/trafficreg"
)

// GenerateSpec names a registered generator and its parameters.
type GenerateSpec struct {
	Model  string `json:"model"`
	Params Params `json:"params,omitempty"`
}

// MetricSelection names one registry metric with optional parameters
// (internal/metricreg).
type MetricSelection = metricreg.Selection

// MeasureSpec selects measurement families. An empty spec ({}) measures
// the full profile.
type MeasureSpec struct {
	// Profile computes the [30]-style comparison profile (expansion,
	// resilience, distortion, hierarchy depth, spectral gap).
	Profile bool `json:"profile,omitempty"`
	// Degrees computes degree statistics and the power-law vs
	// exponential tail classification.
	Degrees bool `json:"degrees,omitempty"`
	// Metrics names an arbitrary metric set from the metric registry
	// (with optional per-metric params), evaluated as one fused
	// schedule on the shared frozen snapshot. Run `topostats -list`
	// for the available names.
	Metrics []MetricSelection `json:"metrics,omitempty"`
}

// wantProfile reports whether the spec implies the default profile
// family: asked for explicitly, or nothing else selected.
func (m *MeasureSpec) wantProfile() bool {
	return m.Profile || (!m.Degrees && len(m.Metrics) == 0)
}

// RouteSpec evaluates the topology under a random traffic matrix.
type RouteSpec struct {
	// Demands is the number of random source/destination pairs.
	Demands int `json:"demands"`
	// Volume is the offered volume per demand (default 1).
	Volume float64 `json:"volume,omitempty"`
	// Mode is "shortest" (default), "capacitated", or "maxmin".
	Mode string `json:"mode,omitempty"`
}

// TrafficSpec evaluates the topology under a registry demand model
// (internal/trafficreg): the highest-degree nodes become traffic sites,
// the named model generates the site-to-site demand matrix, and the
// resulting demands are routed and allocated max-min fairly with
// volume ceilings. The CapTraffic metric set (throughput,
// max-utilization, jain, delivered-frac) summarizes the allocation.
type TrafficSpec struct {
	// Model is a traffic-registry name — run `toposcenario -list` for
	// the full set; e.g. "gravity" (default), "uniform", "zipf-hotspot",
	// "bimodal", "single-epicenter".
	Model string `json:"model,omitempty"`
	// Params are the model's parameters (e.g. gravity {"exponent": 2}),
	// validated against its declared specs.
	Params Params `json:"params,omitempty"`
	// Sites is how many top-degree nodes exchange traffic (default 16;
	// clamped to the node count).
	Sites int `json:"sites,omitempty"`
	// Capacity is substituted for every edge without provisioned
	// capacity before allocating, so generated-but-unprovisioned
	// topologies are evaluated as unit-capacity networks (default 1;
	// negative keeps raw zero capacities).
	Capacity float64 `json:"capacity,omitempty"`
}

// TimelineEventSpec is one ordered event of a timeline. The event
// vocabulary:
//
//   - "fail-node" (node): the node and its incident edges go down.
//   - "fail-edge" (edge): one edge goes down; endpoints stay up.
//   - "repair" (node or edge): the failed item comes back. Repairing a
//     node restores its incident edges except those individually failed
//     or attached to a failed neighbor.
//   - "capacity-set" (edge, capacity): the edge's provisioned capacity
//     changes; connectivity is untouched and the traffic metric set is
//     re-evaluated.
//   - "demand-switch" (model, params): the traffic demand model
//     switches (e.g. bimodal peak → offpeak) and the traffic metric set
//     is re-evaluated.
//
// Failing an already-failed item or repairing a present one is a no-op
// row (the previous values repeat). At/Step optionally timestamp the
// event — at-time (fractional) or at-step (integer) scheduling; an
// event carries at most one of them, and the annotated sequence must be
// non-decreasing, so a shuffled schedule fails validation instead of
// silently replaying out of order.
type TimelineEventSpec struct {
	Event string `json:"event"`
	// Node / Edge target the event (per the vocabulary above). Edge ids
	// follow generation order, as reported by export and `topostats`.
	Node *int `json:"node,omitempty"`
	Edge *int `json:"edge,omitempty"`
	// At is the at-time annotation, Step the at-step one.
	At   *float64 `json:"at,omitempty"`
	Step *int     `json:"step,omitempty"`
	// Capacity is the new capacity for "capacity-set" (> 0, finite).
	Capacity *float64 `json:"capacity,omitempty"`
	// Model/Params name the demand model for "demand-switch".
	Model  string `json:"model,omitempty"`
	Params Params `json:"params,omitempty"`
}

// connectivity maps the event to its robust-engine op, when it has one
// (traffic events return ok == false). Valid only after validation —
// required target fields are known present.
func (ev *TimelineEventSpec) connectivity() (op robust.TimelineOp, id int, ok bool) {
	switch ev.Event {
	case "fail-node":
		return robust.OpFailNode, *ev.Node, true
	case "fail-edge":
		return robust.OpFailEdge, *ev.Edge, true
	case "repair":
		if ev.Node != nil {
			return robust.OpRepairNode, *ev.Node, true
		}
		return robust.OpRepairEdge, *ev.Edge, true
	}
	return 0, 0, false
}

// maxTimelineEvents bounds the expanded (repeat-unrolled) schedule so a
// hostile spec cannot make one replication allocate without bound.
const maxTimelineEvents = 1 << 20

// TimelineSpec replays an ordered failure/repair/traffic event schedule
// against the generated topology — the temporal stage. Connectivity
// events run through the epoch-based reverse union-find engine
// (internal/robust), so a whole outage-and-recovery trajectory costs
// one near-linear pass over the items no event touches plus, per
// monotone epoch, work in the touched items, instead of a full
// traversal per event; capacity-set/demand-switch events re-evaluate the
// CapTraffic metric set with the current capacities and demand model.
// Traffic rows evaluate the intact (provisioned) topology — failures
// feed the connectivity metrics, capacity/demand events the traffic
// ones. Each replication emits one TimelinePoint per event, in order.
type TimelineSpec struct {
	// Events is the ordered schedule (at least one event).
	Events []TimelineEventSpec `json:"events"`
	// Repeat replays the whole schedule N times back-to-back without
	// resetting state — newtest-style stress mode; periodic fail/repair
	// cycles model recurring outages (default 1).
	Repeat int `json:"repeat,omitempty"`
	// Metrics is the connectivity metric set traced per event (default
	// {"lcc"}; must be CapMasked). Timelines with edge-targeted events
	// support only {"lcc"}.
	Metrics []string `json:"metrics,omitempty"`
	// Mode selects the connectivity evaluation path: "auto" (default),
	// "epoch", or "masked" — the parity tests pin them bit-identical.
	Mode string `json:"mode,omitempty"`
}

// AttackSpec runs a robustness sweep through the attack registry
// (internal/attackreg).
type AttackSpec struct {
	// Strategy is an attack-registry name — run `topoattack -list` for
	// the full set; e.g. "random-failure" (default), "degree",
	// "adaptive-degree", "betweenness", "geographic", "preferential",
	// "random-edge", "bottleneck-edge". Legacy aliases ("random",
	// "degree-attack", ...) keep validating.
	Strategy string `json:"strategy,omitempty"`
	// Params are the attack's parameters (e.g. geographic epicenter
	// {"x": 0.2, "y": 0.8}), validated against its declared specs.
	Params Params `json:"params,omitempty"`
	// Fracs are the removal fractions in [0, 1] (default 0.05, 0.1,
	// 0.2); 1 removes the whole schedule.
	Fracs []float64 `json:"fracs,omitempty"`
	// Trials averages randomized attacks (default 3; deterministic
	// attacks always use one pass).
	Trials int `json:"trials,omitempty"`
}

// Scenario is one declarative unit of work: generate a topology, then
// optionally measure, route, and attack it, replicated over seeds. The
// value round-trips through JSON; running the unmarshaled copy produces
// byte-identical output.
type Scenario struct {
	Name     string        `json:"name,omitempty"`
	Generate GenerateSpec  `json:"generate"`
	Measure  *MeasureSpec  `json:"measure,omitempty"`
	Route    *RouteSpec    `json:"route,omitempty"`
	Traffic  *TrafficSpec  `json:"traffic,omitempty"`
	Attack   *AttackSpec   `json:"attack,omitempty"`
	Timeline *TimelineSpec `json:"timeline,omitempty"`
	// Seeds are explicit per-replication seeds; Reps pads beyond them
	// with seeds derived from the last explicit one (or, with no Seeds,
	// from the generator's "seed" parameter). One replication with the
	// generator's seed runs when both are empty.
	Seeds []int64 `json:"seeds,omitempty"`
	Reps  int     `json:"reps,omitempty"`
}

// NumReps is the replication count implied by Seeds and Reps.
func (s *Scenario) NumReps() int {
	n := s.Reps
	if len(s.Seeds) > n {
		n = len(s.Seeds)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SeedFor returns replication rep's seed: the explicit Seeds entry when
// one exists, otherwise a deterministic derivation from the last
// explicit seed. Without any Seeds, the base is the generator's "seed"
// parameter (default 1), and replication 0 uses it verbatim — so a
// spec that only says params{"seed": 42} runs exactly the topology
// `topogen -seed 42` generates.
func (s *Scenario) SeedFor(rep int) int64 {
	if rep < len(s.Seeds) {
		return s.Seeds[rep]
	}
	base := int64(1)
	if len(s.Seeds) > 0 {
		base = s.Seeds[len(s.Seeds)-1]
	} else {
		if v, ok := s.Generate.Params["seed"]; ok {
			base = int64(v)
		}
		if rep == 0 {
			return base
		}
	}
	return rng.Derive(base, rep)
}

// Validate checks the scenario against a registry: the model must
// resolve, its params must validate, and every stage spec must be
// well-formed. Errors wrap errs.ErrBadParam.
func (s *Scenario) Validate(reg *Registry) error {
	_, _, err := s.prepare(reg)
	return err
}

// prepare is Validate plus the execution inputs: the resolved generator
// and its complete parameter set. The engine runs exactly what
// validation checked.
func (s *Scenario) prepare(reg *Registry) (Generator, Params, error) {
	g, resolved, err := reg.Resolve(params.Selection{Name: s.Generate.Model, Params: s.Generate.Params})
	if err != nil {
		return nil, nil, err
	}
	if err := s.checkStages(); err != nil {
		return nil, nil, err
	}
	return g, resolved, nil
}

func (s *Scenario) checkStages() error {
	if m := s.Measure; m != nil && len(m.Metrics) > 0 {
		seen := map[string]bool{}
		for _, sel := range m.Metrics {
			if seen[sel.Name] {
				return errs.BadParamf("scenario %q: duplicate metric %q", s.describe(), sel.Name)
			}
			seen[sel.Name] = true
			mt, _, err := metricreg.Default().Resolve(sel)
			if err != nil {
				return err
			}
			// The measure stage's source never carries a demand set, so
			// a traffic-capable metric there could only fail per-rep at
			// runtime; reject it up front.
			if mt.Caps()&metricreg.CapTraffic != 0 {
				return errs.BadParamf("scenario %q: metric %q needs a demand set — use the traffic stage, not measure.metrics", s.describe(), sel.Name)
			}
		}
	}
	if s.Route != nil {
		if s.Route.Demands < 1 {
			return errs.BadParamf("scenario %q: route stage needs demands >= 1", s.describe())
		}
		switch s.Route.Mode {
		case "", "shortest", "capacitated", "maxmin":
		default:
			return errs.BadParamf("scenario %q: unknown route mode %q", s.describe(), s.Route.Mode)
		}
		if s.Route.Volume < 0 {
			return errs.BadParamf("scenario %q: negative route volume", s.describe())
		}
	}
	if s.Traffic != nil {
		if _, _, err := trafficreg.Default().Resolve(trafficreg.Selection{Name: s.Traffic.Model, Params: s.Traffic.Params}); err != nil {
			return err
		}
		if s.Traffic.Sites < 0 || s.Traffic.Sites == 1 {
			return errs.BadParamf("scenario %q: traffic stage needs sites >= 2 (or 0 for the default)", s.describe())
		}
		if math.IsNaN(s.Traffic.Capacity) || math.IsInf(s.Traffic.Capacity, 0) {
			return errs.BadParamf("scenario %q: traffic capacity %v", s.describe(), s.Traffic.Capacity)
		}
	}
	if s.Attack != nil {
		if _, _, err := attackreg.Default().Resolve(attackreg.Selection{Name: s.Attack.Strategy, Params: s.Attack.Params}); err != nil {
			return err
		}
		if err := robust.ValidateFracs(s.Attack.Fracs); err != nil {
			return errs.BadParamf("scenario %q: %v", s.describe(), err)
		}
		if s.Attack.Trials < 0 {
			return errs.BadParamf("scenario %q: negative attack trials", s.describe())
		}
	}
	if tl := s.Timeline; tl != nil {
		if err := s.checkTimeline(tl); err != nil {
			return err
		}
	}
	if s.Reps < 0 {
		return errs.BadParamf("scenario %q: negative reps", s.describe())
	}
	return nil
}

// checkTimeline validates the timeline stage statically: event
// vocabulary, required/forbidden target fields, monotone at/step
// annotations, resolvable demand models, a CapMasked metric set, and a
// bounded expanded schedule. Node/edge ids are range-checked per
// replication at replay time (the topology size is not known until
// generation). Errors wrap errs.ErrBadParam.
func (s *Scenario) checkTimeline(tl *TimelineSpec) error {
	bad := func(format string, args ...any) error {
		return errs.BadParamf("scenario %q: timeline: "+format, append([]any{s.describe()}, args...)...)
	}
	if len(tl.Events) == 0 {
		return bad("needs at least one event")
	}
	if tl.Repeat < 0 {
		return bad("negative repeat %d", tl.Repeat)
	}
	repeat := tl.Repeat
	if repeat < 1 {
		repeat = 1
	}
	if total := len(tl.Events) * repeat; total > maxTimelineEvents {
		return bad("expanded schedule has %d events (max %d)", total, maxTimelineEvents)
	}
	if _, err := robust.ParseTimelineMode(tl.Mode); err != nil {
		return bad("%v", err)
	}
	hasEdgeEvents := false
	var prevAt *float64
	var prevStep *int
	for i, ev := range tl.Events {
		where := func(format string, args ...any) error {
			return bad("event %d (%s): "+format, append([]any{i, ev.Event}, args...)...)
		}
		needNode, needEdge, needCapacity := false, false, false
		switch ev.Event {
		case "fail-node":
			needNode = true
		case "fail-edge":
			needEdge = true
		case "repair":
			if (ev.Node == nil) == (ev.Edge == nil) {
				return where("needs exactly one of node or edge")
			}
			needNode, needEdge = ev.Node != nil, ev.Edge != nil
		case "capacity-set":
			needEdge, needCapacity = true, true
		case "demand-switch":
			// Model may be empty — the registry's "" alias is gravity,
			// matching TrafficSpec.
		default:
			return bad("event %d: unknown event %q", i, ev.Event)
		}
		if needNode != (ev.Node != nil) {
			return where("node field mismatch")
		}
		if needEdge != (ev.Edge != nil) {
			return where("edge field mismatch")
		}
		if needCapacity != (ev.Capacity != nil) {
			return where("capacity field mismatch")
		}
		if ev.Event != "demand-switch" && (ev.Model != "" || len(ev.Params) > 0) {
			return where("model/params apply only to demand-switch")
		}
		if ev.Node != nil && *ev.Node < 0 {
			return where("negative node %d", *ev.Node)
		}
		if ev.Edge != nil && *ev.Edge < 0 {
			return where("negative edge %d", *ev.Edge)
		}
		if ev.Capacity != nil && !(*ev.Capacity > 0 && !math.IsInf(*ev.Capacity, 0)) {
			// Zero is rejected too: the traffic stage substitutes its
			// default for non-positive capacities, so "set to 0" would
			// silently evaluate as "set to the default".
			return where("capacity must be positive and finite, got %v", *ev.Capacity)
		}
		if ev.Event == "demand-switch" {
			if _, _, err := trafficreg.Default().Resolve(trafficreg.Selection{Name: ev.Model, Params: ev.Params}); err != nil {
				return where("%v", err)
			}
		}
		if ev.Event == "fail-edge" || (ev.Event == "repair" && ev.Edge != nil) {
			hasEdgeEvents = true
		}
		if ev.At != nil && ev.Step != nil {
			return where("carries both at and step")
		}
		if ev.At != nil {
			if math.IsNaN(*ev.At) || math.IsInf(*ev.At, 0) {
				return where("at %v is not a finite time", *ev.At)
			}
			if prevAt != nil && *ev.At < *prevAt {
				return where("at %v precedes earlier event at %v", *ev.At, *prevAt)
			}
			prevAt = ev.At
		}
		if ev.Step != nil {
			if *ev.Step < 0 {
				return where("negative step %d", *ev.Step)
			}
			if prevStep != nil && *ev.Step < *prevStep {
				return where("step %d precedes earlier event step %d", *ev.Step, *prevStep)
			}
			prevStep = ev.Step
		}
	}
	if len(tl.Metrics) > 0 {
		seen := map[string]bool{}
		for _, name := range tl.Metrics {
			if seen[name] {
				return bad("duplicate metric %q", name)
			}
			seen[name] = true
		}
		if _, err := metricreg.ResolveMasked(tl.Metrics, 0); err != nil {
			return bad("%v", err)
		}
		if hasEdgeEvents && !(len(tl.Metrics) == 1 && tl.Metrics[0] == "lcc") {
			return bad("edge-targeted events trace only the \"lcc\" metric, got %v", tl.Metrics)
		}
	}
	return nil
}

func (s *Scenario) describe() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Generate.Model
}

// identityKey is the cache key of one generated topology: the model, the
// fully-resolved parameter set in sorted-name order, and the effective
// seed. Two scenarios that generate the same topology — whatever their
// measure/route/attack stages — share one frozen snapshot.
func identityKey(model string, resolved Params, seed int64) string {
	names := make([]string, 0, len(resolved))
	for name := range resolved {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(model)
	for _, name := range names {
		if name == "seed" {
			continue
		}
		b.WriteByte('|')
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(resolved[name], 'g', -1, 64))
	}
	fmt.Fprintf(&b, "|seed=%d", seed)
	return b.String()
}

// ParseSpec decodes a scenario spec document: a single Scenario object,
// a JSON array of them, or {"scenarios": [...]}. Unknown fields are
// rejected so typos in stage names fail loudly instead of silently
// skipping work.
func ParseSpec(data []byte) ([]Scenario, error) {
	trimmed := strings.TrimSpace(string(data))
	if trimmed == "" {
		return nil, errs.BadParamf("scenario: empty spec")
	}
	strict := func(raw []byte, v any) error {
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
	if strings.HasPrefix(trimmed, "[") {
		var out []Scenario
		if err := strict(data, &out); err != nil {
			return nil, errs.BadParamf("scenario: parse spec array: %v", err)
		}
		return out, nil
	}
	var batch struct {
		Scenarios []Scenario `json:"scenarios"`
	}
	if err := strict(data, &batch); err == nil && len(batch.Scenarios) > 0 {
		return batch.Scenarios, nil
	}
	var one Scenario
	if err := strict(data, &one); err != nil {
		return nil, errs.BadParamf("scenario: parse spec: %v", err)
	}
	return []Scenario{one}, nil
}

// DegreeSummary is the measure stage's degree-family output.
type DegreeSummary struct {
	MeanDegree float64 `json:"mean_degree"`
	MaxDegree  int     `json:"max_degree"`
	Tail       string  `json:"tail"`
}

// RouteSummary is the route stage's output.
type RouteSummary struct {
	Mode           string  `json:"mode"`
	Delivered      float64 `json:"delivered"`
	Dropped        float64 `json:"dropped"`
	MaxUtilization float64 `json:"max_utilization"`
	AvgHops        float64 `json:"avg_hops"`
	// Jain is the fairness index; only the maxmin mode fills it.
	Jain float64 `json:"jain,omitempty"`
}

// TrafficSummary is the traffic stage's output: the CapTraffic metric
// set evaluated on the registry-generated demand set.
type TrafficSummary struct {
	// Model is the canonical demand-model name that generated the
	// demands.
	Model string `json:"model"`
	// Sites and Demands describe the generated demand set: top-degree
	// traffic sites and positive-volume site pairs.
	Sites   int `json:"sites"`
	Demands int `json:"demands"`
	// Offered is the total offered volume; Throughput the volume-aware
	// max-min fair allocation's total rate; DeliveredFrac their ratio.
	Offered       float64 `json:"offered"`
	Throughput    float64 `json:"throughput"`
	DeliveredFrac float64 `json:"delivered_frac"`
	// MaxUtilization is max load/capacity under shortest-path routing
	// of the full offered volumes (-1 when a loaded edge has no
	// capacity).
	MaxUtilization float64 `json:"max_utilization"`
	// Jain is the fairness index over the allocated rates.
	Jain float64 `json:"jain"`
}

// TimelinePoint is one timeline event's output row: the connectivity
// metric set after the event, plus — on capacity-set/demand-switch
// events — the re-evaluated traffic summary.
type TimelinePoint struct {
	// Index is the event's position in the expanded (repeat-unrolled)
	// schedule.
	Index int `json:"index"`
	// Event is the spec's event name; Node/Edge echo its target.
	Event string `json:"event"`
	Node  *int   `json:"node,omitempty"`
	Edge  *int   `json:"edge,omitempty"`
	// Time echoes the event's at (or step) annotation when it has one.
	Time *float64 `json:"time,omitempty"`
	// Metrics holds the connectivity metric set evaluated on the
	// post-event failure state (traffic events repeat the pre-event
	// values — they do not change connectivity).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Traffic is the CapTraffic summary under the current capacities
	// and demand model, present on capacity-set/demand-switch rows.
	Traffic *TrafficSummary `json:"traffic,omitempty"`
}

// RepResult is one replication's output.
type RepResult struct {
	Seed     int64                      `json:"seed"`
	Nodes    int                        `json:"nodes"`
	Edges    int                        `json:"edges"`
	Profile  *metrics.Profile           `json:"profile,omitempty"`
	Degrees  *DegreeSummary             `json:"degrees,omitempty"`
	Metrics  map[string]metricreg.Value `json:"metrics,omitempty"`
	Route    *RouteSummary              `json:"route,omitempty"`
	Traffic  *TrafficSummary            `json:"traffic,omitempty"`
	Attack   []robust.SweepPoint        `json:"attack,omitempty"`
	Timeline []TimelinePoint            `json:"timeline,omitempty"`
}

// Result is one scenario's full output: a RepResult per replication, in
// replication order regardless of worker count.
type Result struct {
	Scenario Scenario    `json:"scenario"`
	Reps     []RepResult `json:"reps"`
	// Partial marks a result cut short by cancellation or error: Reps
	// then holds only the contiguous prefix of replications that
	// completed. Complete runs never set it, so its absence in JSON is
	// the completeness marker.
	Partial bool `json:"partial,omitempty"`
}

// Format renders the result as an aligned text table whose bytes are
// identical for any Engine worker count.
func (r *Result) Format() string {
	var b strings.Builder
	partial := ""
	if r.Partial {
		partial = ", PARTIAL"
	}
	fmt.Fprintf(&b, "scenario %s (model=%s, reps=%d%s)\n",
		r.Scenario.describe(), r.Scenario.Generate.Model, len(r.Reps), partial)
	header := []string{"rep", "seed", "nodes", "edges"}
	if r.Scenario.Measure != nil {
		m := r.Scenario.Measure
		if m.wantProfile() {
			header = append(header, "exp@3", "resil", "distort", "hier", "gap")
		}
		if m.Degrees {
			header = append(header, "meandeg", "maxdeg", "tail")
		}
		for _, sel := range m.Metrics {
			header = append(header, sel.Name)
		}
	}
	if r.Scenario.Route != nil {
		header = append(header, "mode", "delivered", "dropped", "maxutil", "avghops", "jain")
	}
	if r.Scenario.Traffic != nil {
		header = append(header, "tmodel", "tsites", "tput", "tdeliv", "tmaxutil", "tjain")
	}
	if r.Scenario.Attack != nil {
		header = append(header, "lcc@fracs")
	}
	tlPrimary := "lcc"
	if tl := r.Scenario.Timeline; tl != nil {
		if len(tl.Metrics) > 0 {
			tlPrimary = tl.Metrics[0]
		}
		header = append(header, "timeline("+tlPrimary+")")
	}
	rows := make([][]string, 0, len(r.Reps))
	for i, rep := range r.Reps {
		row := []string{
			strconv.Itoa(i),
			strconv.FormatInt(rep.Seed, 10),
			strconv.Itoa(rep.Nodes),
			strconv.Itoa(rep.Edges),
		}
		if rep.Profile != nil {
			row = append(row,
				f4(rep.Profile.ExpansionAt3), f4(rep.Profile.Resilience),
				f4(rep.Profile.Distortion), f4(rep.Profile.HierarchyDepth),
				f4(rep.Profile.SpectralGap))
		}
		if rep.Degrees != nil {
			row = append(row, f4(rep.Degrees.MeanDegree),
				strconv.Itoa(rep.Degrees.MaxDegree), rep.Degrees.Tail)
		}
		if r.Scenario.Measure != nil {
			for _, sel := range r.Scenario.Measure.Metrics {
				row = append(row, f4(rep.Metrics[sel.Name].Scalar))
			}
		}
		if rep.Route != nil {
			row = append(row, rep.Route.Mode,
				f4(rep.Route.Delivered), f4(rep.Route.Dropped),
				f4(rep.Route.MaxUtilization), f4(rep.Route.AvgHops),
				f4(rep.Route.Jain))
		}
		if rep.Traffic != nil {
			row = append(row, rep.Traffic.Model,
				strconv.Itoa(rep.Traffic.Sites),
				f4(rep.Traffic.Throughput), f4(rep.Traffic.DeliveredFrac),
				f4(rep.Traffic.MaxUtilization), f4(rep.Traffic.Jain))
		}
		if rep.Attack != nil {
			cells := make([]string, len(rep.Attack))
			for k, pt := range rep.Attack {
				cells[k] = fmt.Sprintf("%g:%s", pt.FracRemoved, f4(pt.LCCFrac))
			}
			row = append(row, strings.Join(cells, " "))
		}
		if rep.Timeline != nil {
			cells := make([]string, len(rep.Timeline))
			for k, pt := range rep.Timeline {
				val := f4(pt.Metrics[tlPrimary])
				if pt.Traffic != nil {
					val = "tput:" + f4(pt.Traffic.Throughput)
				}
				cells[k] = fmt.Sprintf("%d:%s=%s", pt.Index, pt.Event, val)
			}
			row = append(row, strings.Join(cells, " "))
		}
		rows = append(rows, row)
	}
	table.Write(&b, header, rows)
	// The trailer mirrors the batch-level "# PARTIAL:" line the CLI
	// emits, so a single scenario's table carries the marker on its own
	// — a cancelled run rendered in isolation is never mistaken for a
	// complete one.
	if r.Partial {
		fmt.Fprintf(&b, "# PARTIAL: %d of %d reps\n", len(r.Reps), r.Scenario.NumReps())
	}
	return b.String()
}

func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
