package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Name is "<layer>.<operation>";
// Unit is the unit of work (scenario replication or service job) the
// call served, -1 for the set-up and pass roots.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Unit   int     `json:"unit"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, at the end
// of the traced run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e6 }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, unit, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Unit: unit, Parent: parent, Start: start, End: -1})
	return id
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, unit, parent int, fn func() error) error {
	id := t.begin(name, unit, parent)
	defer t.end(id)
	return fn()
}

// selfTimes returns each span's self time in ms: its duration minus the
// union of the intervals its children cover. Children of a pass root
// overlap (one unit per worker); children of a unit are sequential.
func selfTimes(spans []span) []float64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, lo, hi := 0.0, 0.0, -1.0
		for _, k := range ks {
			if k.Start > hi {
				covered += max(hi-lo, 0)
				lo, hi = k.Start, k.End
				continue
			}
			hi = max(hi, k.End)
		}
		covered += max(hi-lo, 0)
		self[i] = s.dur() - covered
	}
	return self
}

// layerTimes sums self time (in seconds) per layer over the subtree of
// root, excluding the root itself.
func layerTimes(spans []span, self []float64, root int) map[string]float64 {
	out := map[string]float64{}
	for i, s := range spans {
		if i != root && descends(spans, i, root) {
			out[s.layer()] += self[i] / 1e3
		}
	}
	return out
}

// opTimes sums self time (in seconds) per span name over every span.
func opTimes(spans []span, self []float64) map[string]float64 {
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += self[i] / 1e3
	}
	return out
}

func descends(spans []span, i, root int) bool {
	for ; i >= 0; i = spans[i].Parent {
		if i == root {
			return true
		}
	}
	return false
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, workers int, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Workers: workers, Spans: spans})
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}

// tracedRun is what a traced set-up and pass leave behind: the spans,
// the two roots, and the counts the decomposition recorded.
type tracedRun struct {
	spans       []span
	setup, pass int // root span ids; setup is -1 when there is none
	counts      metricSet
	nodesGrown  float64
	csrBytes    float64
}

// finish fills the per-layer metrics of a traced run, prints its layer
// table and writes its spans. untracedPass is the median untraced pass
// time the traced pass is compared with.
func (r *tracedRun) finish(m metricSet, cfg runConfig, workload string, workers int, untracedPass float64) error {
	r.layerMetrics(m, workers)
	m["bench.trace_overhead_frac"] = r.spans[r.pass].dur()/1e3/untracedPass - 1
	r.printLayerTable(cfg.log, workload, workers)
	if cfg.out == "" {
		return nil
	}
	return writeTrace(cfg.out, workload, cfg.seed, workers, r.spans)
}

// layerMetrics turns a traced run into the per-layer "_s" metrics, the
// counts, and the share of the pass the layer spans cover.
func (r *tracedRun) layerMetrics(m metricSet, workers int) {
	self := selfTimes(r.spans)
	ops := opTimes(r.spans, self)
	for _, k := range []struct{ metric, op string }{
		{"core.grow_s", "core.grow"},
		{"gen.generate_s", "gen.generate"},
		{"isp.generate_s", "isp.generate"},
		{"peering.generate_s", "peering.generate"},
		{"access.generate_s", "access.generate"},
		{"graph.freeze_s", "graph.freeze"},
		{"stats.degrees_s", "stats.degrees"},
		{"metricreg.evaluate_s", "metricreg.evaluate"},
		{"metrics.profile_s", "metrics.profile"},
		{"robust.sweep_s", "robust.sweep"},
		{"robust.timeline_s", "robust.timeline"},
		{"routing.route_s", "routing.route"},
		{"trafficreg.prepare_s", "trafficreg.prepare"},
		{"metricreg.traffic_s", "metricreg.traffic"},
	} {
		m[k.metric] = ops[k.op]
	}
	if r.nodesGrown > 0 {
		m["core.grow_us_per_node"] = ops["core.grow"] * 1e6 / r.nodesGrown
	}
	m["graph.csr_mb"] = r.csrBytes / (1 << 20)
	for k, v := range r.counts {
		m[k] = v
	}
	passSelf := layerTimes(r.spans, self, r.pass)
	busy := 0.0
	for _, v := range passSelf {
		busy += v
	}
	if wall := r.spans[r.pass].dur() / 1e3; wall > 0 {
		m["bench.layer_cover_frac"] = busy / (float64(workers) * wall)
	}
}

// printLayerTable writes the per-layer attribution: self time in the
// traced set-up and pass, and the share of the pass's worker time.
func (r *tracedRun) printLayerTable(w io.Writer, workload string, workers int) {
	self := selfTimes(r.spans)
	passSelf := layerTimes(r.spans, self, r.pass)
	setupSelf := map[string]float64{}
	if r.setup >= 0 {
		setupSelf = layerTimes(r.spans, self, r.setup)
	}
	layers := map[string]bool{}
	for l := range passSelf {
		layers[l] = true
	}
	for l := range setupSelf {
		layers[l] = true
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	sort.SliceStable(names, func(a, b int) bool { return passSelf[names[a]] > passSelf[names[b]] })
	capacity := float64(workers) * r.spans[r.pass].dur() / 1e3
	fmt.Fprintf(w, "%s trace: pass %.3fs x %d workers\n", workload, r.spans[r.pass].dur()/1e3, workers)
	fmt.Fprintf(w, "  %-12s %10s %10s %7s\n", "layer", "setup_s", "pass_s", "share")
	for _, l := range names {
		fmt.Fprintf(w, "  %-12s %10.4f %10.4f %6.1f%%\n", l, setupSelf[l], passSelf[l], 100*passSelf[l]/capacity)
	}
}
