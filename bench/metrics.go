package main

// metricDef declares one reported metric. The two tables below are the
// benchmark's contract with BENCHMARK.json: bench_test.go asserts that
// the names emitted by a run equal the names listed there.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// exact marks a count that must repeat bit-for-bit between runs of
	// the same code and seed; -compare checks it.
	exact bool
}

// endToEnd are the metrics a user of the engine or the service sees.
// They are measured with tracing off. A unit is one (scenario,
// replication) of an engine batch, or one job of the service. The bounds
// are as tight as the run-to-run spread on a shared 2-core host allows:
// there the whole machine's speed drifts by 10-20% over minutes. Set-up,
// which includes the warm-up pass, gets the widest bound.
var endToEnd = []metricDef{
	// Building the inputs, constructing the engine or server, and the
	// warm-up pass; the median of setupRepeats set-ups.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	// Units per second of the median measured pass.
	{name: "units_per_s", unit: "1/s", better: "higher", bound: 0.24},
	// From submitting the work until the caller holds the unit's result:
	// the engine's Progress callback, or the service job's terminal poll.
	// The percentile of each measured pass, and the median over passes.
	{name: "unit_ms_p50", unit: "ms", better: "lower", bound: 0.24},
	{name: "unit_ms_p90", unit: "ms", better: "lower", bound: 0.24},
	// VmHWM of the workload's process over one measured pass (the mark
	// is reset before each), the median over passes.
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20},
}

// perLayer are the traced run's layer metrics. A "_s" metric is the
// summed self time of the layer's spans over the traced set-up and the
// traced pass; a layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{name: "core.grow_s", unit: "s", better: "lower"},
	{name: "core.grow_us_per_node", unit: "us", better: "lower"},
	{name: "gen.generate_s", unit: "s", better: "lower"},
	{name: "isp.generate_s", unit: "s", better: "lower"},
	{name: "peering.generate_s", unit: "s", better: "lower"},
	{name: "access.generate_s", unit: "s", better: "lower"},
	{name: "graph.freeze_s", unit: "s", better: "lower"},
	{name: "stats.degrees_s", unit: "s", better: "lower"},
	{name: "metricreg.evaluate_s", unit: "s", better: "lower"},
	{name: "metricreg.bfs_runs", unit: "count", better: "lower", exact: true},
	{name: "metricreg.bfs_requested", unit: "count", better: "lower", exact: true},
	{name: "metricreg.bulk_tasks", unit: "count", better: "lower", exact: true},
	{name: "metrics.profile_s", unit: "s", better: "lower"},
	{name: "robust.sweep_s", unit: "s", better: "lower"},
	{name: "robust.sweep_steps", unit: "count", better: "lower", exact: true},
	{name: "robust.timeline_s", unit: "s", better: "lower"},
	{name: "robust.timeline_events", unit: "count", better: "lower", exact: true},
	{name: "robust.timeline_epochs", unit: "count", better: "lower", exact: true},
	{name: "routing.route_s", unit: "s", better: "lower"},
	{name: "routing.demands", unit: "count", better: "lower", exact: true},
	{name: "routing.sources", unit: "count", better: "lower", exact: true},
	{name: "trafficreg.prepare_s", unit: "s", better: "lower"},
	{name: "trafficreg.demands", unit: "count", better: "lower", exact: true},
	{name: "metricreg.traffic_s", unit: "s", better: "lower"},
	// The cache counters are per measured pass. A service pass submits
	// each topology's jobs back to back, so however the two clients
	// interleave, each topology misses once and is evicted once.
	{name: "scenario.cache_hit_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "scenario.cache_misses", unit: "count", better: "lower", exact: true},
	{name: "scenario.cache_evictions", unit: "count", better: "lower", exact: true},
	{name: "scenario.snapshot_mb", unit: "MB", better: "lower"},
	{name: "graph.csr_mb", unit: "MB", better: "lower"},
	{name: "service.submit_ms_p50", unit: "ms", better: "lower"},
	{name: "service.poll_ms_p50", unit: "ms", better: "lower"},
	{name: "service.polls_per_job", unit: "polls/job", better: "lower"},
	{name: "service.queue_ms_p50", unit: "ms", better: "lower"},
	{name: "service.kb_per_job", unit: "KB/job", better: "lower"},
	{name: "service.job_ms_p99", unit: "ms", better: "lower"},
	{name: "runtime.alloc_mb", unit: "MB", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "bench.layer_cover_frac", unit: "ratio", better: "higher"},
}

// metricValue is one reported number with its unit, the shape of the
// "metrics" object in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values; emit keeps exactly the metrics of
// one table, so a run reports that table and nothing else.
type metricSet map[string]float64

func (m metricSet) emit(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return out
}
