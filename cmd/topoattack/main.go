// Command topoattack runs registry-driven robustness sweeps: generate a
// topology with any registered model, then trace metric curves along
// one or more named attack schedules — the attack mirror of
// `topostats`, on the sweep engine whose reverse union-find replay
// computes whole LCC trajectories in near-linear time.
//
// Usage:
//
//	topoattack -model ba -n 2000 -gparam m=2 -attacks degree,random-failure
//	topoattack -model fkp -attacks geographic -param geographic.x=0.2 -param geographic.y=0.8
//	topoattack -model waxman -attacks random-edge,bottleneck-edge -fracs 0.1,0.3,0.5,1
//	topoattack -model ba -attacks degree -metrics lcc,mean-degree
//	topoattack -gap -model fkp -attacks adaptive-degree,preferential
//	topoattack -list
//
// Attacks are selected like topostats metrics: a comma-separated
// -attacks list plus repeatable -param attack.key=value assignments,
// both validated against the attack registry (run -list for the full
// set with typed parameters). The metric set picks the evaluation path:
// a plain lcc set replays each schedule through union-find, any other
// set re-evaluates masked metrics per fraction. Output is
// byte-identical for any -workers value.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/attackreg"
	"repro/internal/errs"
	"repro/internal/params"
	"repro/internal/robust"
	"repro/internal/scenario"
)

func main() {
	var (
		model   = flag.String("model", "ba", "topology model: any registered generator (see toposcenario -list)")
		n       = flag.Int("n", 1000, "number of nodes (models that declare an \"n\" parameter)")
		seed    = flag.Int64("seed", 1, "random seed (generation and randomized schedules)")
		attacks = flag.String("attacks", "random-failure,degree", "comma-separated attack-registry names")
		fracs   = flag.String("fracs", "0.01,0.05,0.1,0.2,0.5", "comma-separated removal fractions in [0,1]")
		metrics = flag.String("metrics", "lcc", "comma-separated masked metric set traced along each schedule")
		trials  = flag.Int("trials", 3, "trials averaged for randomized attacks (deterministic attacks use one pass)")
		gap     = flag.Bool("gap", false, "also report each attack's gap vs the random-failure baseline")
		workers = flag.Int("workers", 0, "worker pool bound (<= 0 = GOMAXPROCS); output is identical for any value")
		format  = flag.String("format", "table", "output format: table|json")
		out     = flag.String("o", "-", "output file ('-' = stdout)")
		list    = flag.Bool("list", false, "list registered attacks with their parameters and exit")
	)
	var gparams, aparams stringList
	flag.Var(&gparams, "gparam", "generator parameter as name=value (repeatable)")
	flag.Var(&aparams, "param", "attack parameter as attack.name=value (repeatable)")
	flag.Parse()

	if *list {
		attackreg.Default().FormatAttacks(os.Stdout, "-param ")
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := config{
		model: *model, n: *n, seed: *seed,
		attacks: *attacks, aparams: aparams, gparams: gparams,
		fracs: *fracs, metrics: *metrics, trials: *trials,
		gap: *gap, workers: *workers, format: *format, out: *out,
	}
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "topoattack: %v\n", err)
		os.Exit(1)
	}
}

// stringList collects a repeatable flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

type config struct {
	model            string
	n                int
	seed             int64
	attacks          string
	aparams, gparams []string
	fracs            string
	metrics          string
	trials           int
	gap              bool
	workers          int
	format           string
	out              string
}

// attackResult is one attack's sweep output in the JSON format.
type attackResult struct {
	Attack string               `json:"attack"`
	Target string               `json:"target"`
	Curves []robust.MetricCurve `json:"curves"`
	Gap    *float64             `json:"gap,omitempty"`
	Params attackreg.Params     `json:"params,omitempty"`
	Fracs  []float64            `json:"fracs"`
}

func run(ctx context.Context, cfg config) error {
	set, err := attackreg.ParseSelections(cfg.attacks, cfg.aparams)
	if err != nil {
		return err
	}
	fracList, err := parseFracs(cfg.fracs)
	if err != nil {
		return err
	}
	metricNames := strings.Split(cfg.metrics, ",")
	for i := range metricNames {
		metricNames[i] = strings.TrimSpace(metricNames[i])
	}

	// Generate through the scenario registry; the -n/-seed conveniences
	// apply only to models that declare those parameters, -gparam
	// overrides them.
	gen, err := scenario.Lookup(cfg.model)
	if err != nil {
		return err
	}
	p := scenario.Params{}
	for _, spec := range gen.Params() {
		switch spec.Name {
		case "n":
			p["n"] = float64(cfg.n)
		case "seed":
			p["seed"] = float64(cfg.seed)
		}
	}
	for _, kv := range cfg.gparams {
		name, v, err := params.ParseKV(kv)
		if err != nil {
			return err
		}
		p[name] = v
	}
	g, err := scenario.Default().GenerateByName(ctx, cfg.model, p)
	if err != nil {
		return err
	}
	c := g.Freeze()

	// Baseline LCC curves for -gap, computed once per schedule target
	// (random-failure for node attacks, random-edge for edge attacks)
	// and shared across every selected attack.
	baselines := map[string][]float64{}
	baseline := func(target attackreg.Target) ([]float64, error) {
		name := robust.BaselineFor(target)
		if vals, ok := baselines[name]; ok {
			return vals, nil
		}
		curves, err := robust.RunSweepContext(ctx, g, c, robust.SweepSpec{
			Attack: name, Fracs: fracList, Trials: cfg.trials, Workers: cfg.workers,
		}, cfg.seed)
		if err != nil {
			return nil, err
		}
		baselines[name] = curves[0].Values
		return curves[0].Values, nil
	}

	results := make([]attackResult, 0, len(set))
	for _, sel := range set {
		atk, err := attackreg.Lookup(sel.Name)
		if err != nil {
			return err
		}
		spec := robust.SweepSpec{
			Attack:  sel.Name,
			Params:  sel.Params,
			Fracs:   fracList,
			Trials:  cfg.trials,
			Metrics: metricNames,
			Workers: cfg.workers,
		}
		curves, err := robust.RunSweepContext(ctx, g, c, spec, cfg.seed)
		if err != nil {
			return err
		}
		res := attackResult{
			Attack: atk.Name(), Target: atk.Target().String(),
			Curves: curves, Params: sel.Params, Fracs: fracList,
		}
		if cfg.gap {
			base, err := baseline(atk.Target())
			if err != nil {
				return err
			}
			// Reuse the sweep's own LCC curve when the metric set traced
			// it; only a non-LCC set pays for one extra sweep.
			var atkLCC []float64
			for _, curve := range curves {
				if curve.Name == "lcc" {
					atkLCC = curve.Values
				}
			}
			if atkLCC == nil {
				lccSpec := spec
				lccSpec.Metrics = nil
				lccCurves, err := robust.RunSweepContext(ctx, g, c, lccSpec, cfg.seed)
				if err != nil {
					return err
				}
				atkLCC = lccCurves[0].Values
			}
			gap := 0.0
			for i := range base {
				gap += base[i] - atkLCC[i]
			}
			gap /= float64(len(base))
			res.Gap = &gap
		}
		results = append(results, res)
	}

	var w io.Writer = os.Stdout
	if cfg.out != "-" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch cfg.format {
	case "table":
		writeTable(w, g.NumNodes(), g.NumEdges(), cfg.model, results)
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	default:
		return errs.BadParamf("topoattack: unknown format %q", cfg.format)
	}
	return nil
}

func parseFracs(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, errs.BadParamf("topoattack: invalid fraction %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// writeTable renders one aligned row per (attack, metric) curve, with a
// column per removal fraction.
func writeTable(w io.Writer, nodes, edges int, model string, results []attackResult) {
	fmt.Fprintf(w, "topoattack %s: %d nodes, %d edges\n", model, nodes, edges)
	if len(results) == 0 {
		return
	}
	header := []string{"attack", "target", "metric"}
	for _, f := range results[0].Fracs {
		header = append(header, "@"+strconv.FormatFloat(f, 'g', -1, 64))
	}
	gapCol := false
	for _, r := range results {
		if r.Gap != nil {
			gapCol = true
		}
	}
	if gapCol {
		header = append(header, "gap")
	}
	var rows [][]string
	for _, r := range results {
		for _, curve := range r.Curves {
			row := []string{r.Attack, r.Target, curve.Name}
			for _, v := range curve.Values {
				row = append(row, strconv.FormatFloat(v, 'f', 4, 64))
			}
			if gapCol {
				cell := "-"
				if r.Gap != nil {
					cell = strconv.FormatFloat(*r.Gap, 'f', 4, 64)
				}
				row = append(row, cell)
			}
			rows = append(rows, row)
		}
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}
