// Command topogen generates topologies with any model in the scenario
// registry and writes them as JSON, DOT, or an adjacency list.
//
// Usage:
//
//	topogen -model fkp -n 2000 -alpha 8 -seed 1 -format json -o out.json
//	topogen -model ba -n 5000 -m 2 -format dot
//	topogen -model isp -cities 25 -pops 8 -customers 2000
//	topogen -model internet -isps 8 -pops 5 -customers 300
//	topogen -model inet -param alpha=2.2 -n 3000
//	topogen -list
//
// The documented convenience flags (-n, -alpha, -m, ...) cover the
// classic models: fkp, hot, mmp, ring, ba, glp, er, waxman, transitstub,
// rgg, isp, internet. Every registered model — run `topogen -list` for
// the full set with its typed parameters — is reachable through
// repeatable -param name=value flags, which override the convenience
// flags on conflict.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/export"
	"repro/internal/graph"
	"repro/internal/params"
	"repro/internal/scenario"
)

// paramFlags collects repeatable -param name=value pairs through the
// shared parser (internal/params), so CLI parsing and spec validation
// reject the same inputs.
type paramFlags scenario.Params

func (p paramFlags) String() string { return fmt.Sprintf("%v", scenario.Params(p)) }

func (p paramFlags) Set(s string) error {
	name, v, err := params.ParseKV(s)
	if err != nil {
		return err
	}
	p[name] = v
	return nil
}

func main() {
	var (
		model  = flag.String("model", "fkp", "topology model: any registered generator (see -list); classics: fkp|hot|mmp|ring|ba|glp|er|waxman|transitstub|rgg|isp|internet")
		n      = flag.Int("n", 1000, "number of nodes / customers")
		seed   = flag.Int64("seed", 1, "random seed")
		format = flag.String("format", "json", "output format: json|dot|adj")
		out    = flag.String("o", "-", "output file ('-' = stdout)")
		list   = flag.Bool("list", false, "list registered models with their parameters and exit")

		alpha = flag.Float64("alpha", 8, "fkp: distance weight")
		links = flag.Int("links", 1, "hot: links per arrival")
		ports = flag.Int("ports", 0, "fkp/hot/isp: max router degree (0 = unlimited)")

		m    = flag.Int("m", 2, "ba/glp: links per new node")
		p    = flag.Float64("p", 0.3, "glp: internal-link probability; er: edge probability")
		beta = flag.Float64("beta", 0.5, "glp: preference shift; waxman: edge probability scale")
		wa   = flag.Float64("waxman-alpha", 0.1, "waxman: distance decay scale")
		rad  = flag.Float64("radius", 0.1, "rgg: connection radius")

		cities    = flag.Int("cities", 25, "isp/internet: number of cities")
		pops      = flag.Int("pops", 8, "isp/internet: POPs per provider")
		customers = flag.Int("customers", 2000, "isp/internet: customers per provider")
		isps      = flag.Int("isps", 8, "internet: number of providers")
		price     = flag.Float64("price", 0, "isp: per-demand price (>0 switches to profit formulation)")
	)
	overrides := paramFlags{}
	flag.Var(overrides, "param", "extra model parameter as name=value (repeatable; overrides convenience flags)")
	flag.Parse()

	if *list {
		listModels(os.Stdout)
		return
	}

	g, err := generate(*model, genParams{
		n: *n, seed: *seed, alpha: *alpha, links: *links, ports: *ports,
		m: *m, p: *p, beta: *beta, waxmanAlpha: *wa, radius: *rad,
		cities: *cities, pops: *pops, customers: *customers, isps: *isps,
		price: *price, overrides: scenario.Params(overrides),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
		os.Exit(1)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		err = export.WriteJSON(w, g, *model)
	case "dot":
		err = export.WriteDOT(w, g, *model)
	case "adj":
		err = export.WriteAdjacency(w, g)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "topogen: %s: %d nodes, %d edges\n", *model, g.NumNodes(), g.NumEdges())
}

func listModels(w io.Writer) {
	scenario.Default().Format(w, "-param ", false)
}

type genParams struct {
	n           int
	seed        int64
	alpha       float64
	links       int
	ports       int
	m           int
	p           float64
	beta        float64
	waxmanAlpha float64
	radius      float64
	cities      int
	pops        int
	customers   int
	isps        int
	price       float64
	overrides   scenario.Params
}

// generate dispatches through the scenario registry: the documented
// convenience flags are mapped onto each classic model's registry
// parameters, any -param overrides are applied last, and the registry
// validates the final set.
func generate(model string, gp genParams) (*graph.Graph, error) {
	name, params, err := registryArgs(model, gp)
	if err != nil {
		return nil, err
	}
	for k, v := range gp.overrides {
		params[k] = v
	}
	return scenario.Default().GenerateByName(context.Background(), name, params)
}

// registryArgs maps topogen's documented flag sets onto registry names
// and parameters. Models outside the documented set pass only the flags
// they declare ("n", "seed"), leaving the rest to -param.
func registryArgs(model string, gp genParams) (string, scenario.Params, error) {
	fn := float64(gp.n)
	fseed := float64(gp.seed)
	switch model {
	case "fkp":
		return model, scenario.Params{"n": fn, "alpha": gp.alpha, "ports": float64(gp.ports), "seed": fseed}, nil
	case "hot":
		return model, scenario.Params{"n": fn, "alpha": gp.alpha, "links": float64(gp.links), "ports": float64(gp.ports), "seed": fseed}, nil
	case "mmp":
		return model, scenario.Params{"n": fn, "seed": fseed}, nil
	case "ring":
		return model, scenario.Params{"n": fn, "seed": fseed}, nil
	case "ba":
		return model, scenario.Params{"n": fn, "m": float64(gp.m), "seed": fseed}, nil
	case "glp":
		return model, scenario.Params{"n": fn, "m": float64(gp.m), "p": gp.p, "beta": gp.beta, "seed": fseed}, nil
	case "er", "er-gnp":
		return "er-gnp", scenario.Params{"n": fn, "p": gp.p, "seed": fseed}, nil
	case "waxman":
		return model, scenario.Params{"n": fn, "alpha": gp.waxmanAlpha, "beta": gp.beta, "seed": fseed}, nil
	case "transitstub":
		stubSize := gp.n / 48
		if stubSize < 2 {
			stubSize = 2
		}
		return model, scenario.Params{
			"domains": 4, "transitsize": 4, "stubs": 3,
			"stubsize": float64(stubSize), "edgeprob": 0.3, "seed": fseed,
		}, nil
	case "rgg":
		return model, scenario.Params{"n": fn, "radius": gp.radius, "seed": fseed}, nil
	case "isp":
		return model, scenario.Params{
			"cities": float64(gp.cities), "pops": float64(gp.pops),
			"customers": float64(gp.customers), "ports": float64(gp.ports),
			"price": gp.price, "seed": fseed,
		}, nil
	case "internet":
		return model, scenario.Params{
			"cities": float64(gp.cities), "pops": float64(gp.pops),
			"customers": float64(gp.customers), "isps": float64(gp.isps),
			"seed": fseed,
		}, nil
	default:
		// Any other registered model: pass the generic flags it
		// declares; everything else comes from -param.
		g, err := scenario.Lookup(model)
		if err != nil {
			return "", nil, err
		}
		params := scenario.Params{}
		for _, s := range g.Params() {
			switch s.Name {
			case "n":
				params["n"] = fn
			case "seed":
				params["seed"] = fseed
			}
		}
		return model, params, nil
	}
}
