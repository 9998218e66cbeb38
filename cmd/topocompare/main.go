// Command topocompare scores how structurally similar two topology files
// are — the paper's §5 validation workflow: compare a generated
// ("candidate") topology against a measured ("reference") one across the
// full metric suite.
//
// Usage:
//
//	topogen -model fkp -n 1000 -o ref.json
//	topogen -model ba -n 1000 -o cand.json
//	topocompare -ref ref.json -cand cand.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/export"
	"repro/internal/graph"
	"repro/internal/validate"
)

func main() {
	var (
		ref  = flag.String("ref", "", "reference topology (JSON)")
		cand = flag.String("cand", "", "candidate topology (JSON)")
		adj  = flag.Bool("adj", false, "inputs are adjacency lists, not JSON")
		seed = flag.Int64("seed", 1, "seed for sampled metrics")
	)
	flag.Parse()
	if *ref == "" || *cand == "" {
		fmt.Fprintln(os.Stderr, "topocompare: both -ref and -cand are required")
		os.Exit(2)
	}
	rg, err := load(*ref, *adj)
	if err != nil {
		fatal(err)
	}
	cg, err := load(*cand, *adj)
	if err != nil {
		fatal(err)
	}
	cmp, err := validate.CompareContext(context.Background(), rg, cg, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Print(cmp.Format())
}

func load(path string, adj bool) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if adj {
		return export.ReadAdjacency(f)
	}
	g, _, err := export.ReadJSON(f)
	return g, err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "topocompare: %v\n", err)
	os.Exit(1)
}
