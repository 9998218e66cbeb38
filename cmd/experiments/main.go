// Command experiments runs the paper-reproduction experiments E1–E11
// and prints their tables. An -only list that names an unknown id prints
// the valid ids and exits 2 before anything runs.
//
// Usage:
//
//	experiments                  # run everything at full scale
//	experiments -only E2,E3      # a subset
//	experiments -scale 0.2       # smaller/faster
//	experiments -seed 7 -reps 3
//	experiments -workers 1       # one replication at a time (tables are identical for any -workers)
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		only    = flag.String("only", "", "comma-separated experiment IDs (e.g. E1,E7); empty = all")
		seed    = flag.Int64("seed", 42, "master seed")
		scale   = flag.Float64("scale", 1.0, "instance scale in (0,1]")
		reps    = flag.Int("reps", 0, "Monte Carlo replications (0 = per-experiment default)")
		workers = flag.Int("workers", 0, "worker goroutines for replication fan-out (0 = all cores)")
	)
	flag.Parse()

	runners, err := selectRunners(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	opts := experiments.Options{Seed: *seed, Scale: *scale, Reps: *reps, Workers: *workers}
	failed := false
	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, err)
			failed = true
			continue
		}
		fmt.Println(tbl.Format())
		fmt.Printf("(%s completed in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

// selectRunners resolves a comma-separated -only list against
// experiments.All, ignoring case and spaces, and returns the named
// runners in All's order; an empty list selects every runner. An id that
// names no experiment is an error that lists the valid ids.
func selectRunners(only string) ([]experiments.Runner, error) {
	all := experiments.All()
	if strings.TrimSpace(only) == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		want[strings.ToUpper(strings.TrimSpace(id))] = true
	}
	var out []experiments.Runner
	ids := make([]string, len(all))
	for i, r := range all {
		ids[i] = r.ID
		if want[r.ID] {
			out = append(out, r)
			delete(want, r.ID)
		}
	}
	if len(want) > 0 {
		return nil, fmt.Errorf("unknown experiment id(s) %q; valid ids: %s",
			slices.Sorted(maps.Keys(want)), strings.Join(ids, ","))
	}
	return out, nil
}
