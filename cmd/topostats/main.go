// Command topostats computes topology metrics on a topology file (JSON
// produced by topogen, or a plain adjacency list), built on the metric
// registry (internal/metricreg).
//
// Usage:
//
//	topogen -model fkp -n 2000 | topostats
//	topostats -in topo.json
//	topostats -in edges.txt -adj
//	topostats -in topo.json -ccdf                  # also print the degree CCDF
//	topostats -list                                 # enumerate registry metrics
//	topostats -in topo.json -metrics clustering,expansion,diameter
//	topostats -in topo.json -metrics expansion -param expansion.maxh=5
//	topostats -in topo.json -metrics throughput,jain -traffic zipf-hotspot -sites 12
//
// Without -metrics the full default report (degree statistics, tail
// classification, the [30]-style comparison profile) is printed. With
// -metrics, exactly the named registry metrics are evaluated — as one
// fused schedule sharing traversals over a single frozen snapshot — and
// printed in selection order; repeatable -param metric.name=value flags
// set metric parameters.
//
// Traffic-capable metrics (throughput, max-utilization, jain,
// delivered-frac) need a demand set: -traffic names a registered demand
// model (internal/trafficreg) that generates demands over the
// topology's -sites top-degree nodes, with repeatable -tparam
// model.name=value parameters; -capacity substitutes a capacity on
// unprovisioned (zero-capacity) edges before allocating.
//
// Malformed input (corrupt JSON, bad adjacency lines, an empty
// topology) exits non-zero with a diagnostic on stderr and writes no
// partial statistics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trafficreg"
)

func main() {
	var (
		in       = flag.String("in", "-", "input file ('-' = stdin)")
		adj      = flag.Bool("adj", false, "input is an adjacency list, not JSON")
		ccdf     = flag.Bool("ccdf", false, "print the degree CCDF")
		seed     = flag.Int64("seed", 1, "seed for sampled metrics")
		list     = flag.Bool("list", false, "list registered metrics and traffic models with their parameters and exit")
		metricF  = flag.String("metrics", "", "comma-separated registry metrics to evaluate (empty = full default report)")
		trafficF = flag.String("traffic", "", "demand model generating traffic for the traffic-capable metrics (requires -metrics)")
		sites    = flag.Int("sites", 16, "top-degree traffic sites for -traffic demand generation")
		capacity = flag.Float64("capacity", 1, "capacity substituted on unprovisioned edges before allocating (-traffic; <= 0 keeps raw zeros)")
	)
	var mparams, tparams stringList
	flag.Var(&mparams, "param", "metric parameter as metric.name=value (repeatable; requires -metrics)")
	flag.Var(&tparams, "tparam", "traffic-model parameter as model.name=value (repeatable; requires -traffic)")
	flag.Parse()

	if *list {
		listMetrics(os.Stdout)
		return
	}
	if err := run(runConfig{
		in: *in, adj: *adj, ccdf: *ccdf, seed: *seed,
		metrics: *metricF, mparams: mparams,
		traffic: *trafficF, tparams: tparams, sites: *sites, capacity: *capacity,
	}, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "topostats: %v\n", err)
		os.Exit(1)
	}
}

// stringList collects a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return fmt.Sprintf("%v", []string(*l)) }

func (l *stringList) Set(s string) error {
	*l = append(*l, s)
	return nil
}

// listMetrics prints the metric registry and the traffic-model
// registry, both sorted by name.
func listMetrics(w io.Writer) {
	metricreg.Default().Format(w, "-param ", true)
	fmt.Fprintln(w, "traffic models (-traffic):")
	trafficreg.Default().Format(w, "-tparam ", true)
}

// runConfig carries the parsed flag set.
type runConfig struct {
	in       string
	adj      bool
	ccdf     bool
	seed     int64
	metrics  string
	mparams  []string
	traffic  string
	tparams  []string
	sites    int
	capacity float64
}

// run reads, validates, and reports on one topology. It writes nothing
// to w until the input has parsed, validated, and (with -metrics) the
// selection has resolved, so a failure never leaves partial output
// behind.
func run(cfg runConfig, stdin io.Reader, w io.Writer) error {
	var set []metricreg.Selection
	if cfg.metrics != "" {
		var err error
		if set, err = metricreg.Default().ParseSelections(cfg.metrics, cfg.mparams); err != nil {
			return err
		}
		if cfg.ccdf {
			return fmt.Errorf("-ccdf applies to the default report, not -metrics")
		}
	} else if len(cfg.mparams) > 0 {
		return fmt.Errorf("-param requires -metrics")
	}
	var tsel *trafficreg.Selection
	if cfg.traffic != "" {
		if set == nil {
			return fmt.Errorf("-traffic requires -metrics")
		}
		sels, err := trafficreg.Default().ParseSelections(cfg.traffic, cfg.tparams)
		if err != nil {
			return err
		}
		if len(sels) != 1 {
			return fmt.Errorf("-traffic takes exactly one demand model, got %q", cfg.traffic)
		}
		if cfg.sites == 1 {
			return fmt.Errorf("-sites must be >= 2 (or <= 0 for all nodes)")
		}
		tsel = &sels[0]
	} else if len(cfg.tparams) > 0 {
		return fmt.Errorf("-tparam requires -traffic")
	} else {
		// Map the library's "no traffic attached" failure to the flag
		// the user actually needs, before any input is read.
		for _, sel := range set {
			if m, err := metricreg.Lookup(sel.Name); err == nil && m.Caps()&metricreg.CapTraffic != 0 {
				return fmt.Errorf("metric %q needs a demand set; pass -traffic <model> (see -list)", sel.Name)
			}
		}
	}
	r := stdin
	if cfg.in != "-" {
		f, err := os.Open(cfg.in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var g *graph.Graph
	var name string
	var err error
	if cfg.adj {
		g, err = export.ReadAdjacency(r)
		name = cfg.in
	} else {
		g, name, err = export.ReadJSON(r)
	}
	if err != nil {
		return err
	}
	if g.NumNodes() == 0 {
		return fmt.Errorf("input %q holds an empty topology (no nodes)", cfg.in)
	}

	if set != nil {
		return runMetricSet(w, g, name, set, tsel, cfg)
	}
	ccdf, seed := cfg.ccdf, cfg.seed

	fmt.Fprintf(w, "topology: %s\n", name)
	fmt.Fprintf(w, "nodes: %d\nedges: %d\n", g.NumNodes(), g.NumEdges())
	fmt.Fprintf(w, "connected: %v\ntree: %v\nforest: %v\n", g.IsConnected(), g.IsTree(), g.IsForest())
	ds := stats.AnalyzeDegrees(g)
	fmt.Fprintf(w, "mean degree: %.3f\nmax degree: %d (%.4f of n-1)\n",
		ds.MeanDegree, ds.MaxDegree, ds.TopDegreeFrac)
	fmt.Fprintf(w, "degree tail: %s (power-law alpha=%.2f xmin=%d KS=%.3f; exp lambda=%.3f KS=%.3f; llr=%.2f)\n",
		ds.Classification.Kind,
		ds.Classification.PowerLaw.Alpha, ds.Classification.PowerLaw.XMin, ds.Classification.PowerLaw.KS,
		ds.Classification.Exponential.Lambda, ds.Classification.Exponential.KS,
		ds.Classification.LogLikRatio)
	fmt.Fprintf(w, "classification: %s\n", core.Classify(g, ds))
	c := g.Freeze()
	report := []metricreg.Selection{{Name: "clustering"}, {Name: "assortativity"}}
	// The exact hop diameter (the registry's diameter over every source)
	// costs one BFS per node, so the report skips it above 2,000 nodes.
	hopDiameter := g.NumNodes() <= 2000
	if hopDiameter {
		report = append(report, metricreg.Selection{Name: "diameter"})
	}
	vals, err := metricreg.Evaluate(context.Background(), metricreg.NewSource(g, c), report,
		metricreg.Options{Workers: 1})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "clustering: %.4f\nassortativity: %.4f\n",
		vals["clustering"].Scalar, vals["assortativity"].Scalar)
	prof, err := metrics.ProfileContext(context.Background(), g, c, seed, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "expansion@3: %.4f\nresilience: %.4f\ndistortion: %.3f\nhierarchy depth: %.3f\nspectral gap: %.4f\n",
		prof.ExpansionAt3, prof.Resilience, prof.Distortion, prof.HierarchyDepth, prof.SpectralGap)
	if hopDiameter {
		fmt.Fprintf(w, "hop diameter: %d\n", int(vals["diameter"].Scalar))
	}
	if ccdf {
		fmt.Fprintln(w, "degree CCDF (k  P[D>=k]):")
		for _, pt := range stats.DegreeCCDF(g.Degrees()) {
			fmt.Fprintf(w, "  %4d  %.6f\n", pt.Value, pt.Frac)
		}
	}
	return nil
}

// runMetricSet evaluates the selected metrics as one fused schedule and
// prints them in selection order. With a traffic selection, the demand
// model's demands over the topology's top-degree sites are attached so
// traffic-capable metrics evaluate.
func runMetricSet(w io.Writer, g *graph.Graph, name string, set []metricreg.Selection, tsel *trafficreg.Selection, cfg runConfig) error {
	demandCount, siteCount := 0, 0
	src := metricreg.NewSource(g, nil)
	if tsel != nil {
		eval, demands, sites, err := trafficreg.PrepareGraphTraffic(
			context.Background(), g, *tsel, cfg.sites, cfg.capacity, cfg.seed)
		if err != nil {
			return err
		}
		demandCount, siteCount = len(demands), sites
		src = metricreg.NewSource(eval, nil)
		src.SetTraffic(demands)
	}
	vals, err := metricreg.Evaluate(context.Background(), src, set,
		metricreg.Options{Seed: cfg.seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "topology: %s\n", name)
	fmt.Fprintf(w, "nodes: %d\nedges: %d\n", g.NumNodes(), g.NumEdges())
	if tsel != nil {
		fmt.Fprintf(w, "traffic: %s (%d demands over %d sites)\n",
			trafficreg.Canonical(tsel.Name), demandCount, siteCount)
	}
	for _, sel := range set {
		v := vals[sel.Name]
		fmt.Fprintf(w, "%s: %.6f", sel.Name, v.Scalar)
		if len(v.Series) > 0 {
			fmt.Fprintf(w, "  series=")
			for i, s := range v.Series {
				if i > 0 {
					fmt.Fprintf(w, ",")
				}
				fmt.Fprintf(w, "%.6f", s)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}
