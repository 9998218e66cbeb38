// Package experiments contains one runner per experiment E1–E9 from
// DESIGN.md. Each runner regenerates one quantitative claim of the paper
// and returns a formatted table; cmd/experiments prints them and
// EXPERIMENTS.md records representative output.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/errs"
	"repro/internal/par"
	"repro/internal/table"
)

// Options tune experiment scale. Scale 1.0 is the published size; tests
// use smaller scales for speed.
type Options struct {
	Seed  int64
	Scale float64 // 0 < Scale <= 1; 0 defaults to 1
	Reps  int     // Monte Carlo replications; 0 defaults per experiment
	// Workers bounds the goroutines used to fan replications and
	// independent table rows out (<= 0 means GOMAXPROCS). Every
	// experiment reduces per-rep results in a fixed order, so tables are
	// byte-identical for any Workers value.
	Workers int
	// Context, when non-nil, cancels a run between replications: every
	// unit fanned out through mapUnits checks it before starting and the
	// run returns an errs.ErrCanceled-wrapping error once it is done.
	Context context.Context
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) scale(n int) int {
	s := o.Scale
	if s <= 0 || s > 1 {
		s = 1
	}
	v := int(float64(n) * s)
	if v < 10 {
		v = 10
	}
	return v
}

func (o Options) reps(def int) int {
	if o.Reps > 0 {
		return o.Reps
	}
	return def
}

// mapUnits runs fn for every unit index in [0, n) across the option's
// worker pool and returns the results in index order. Each unit must be
// independent and seeded only from its own index; the caller reduces the
// ordered slice sequentially, which keeps every table byte-identical for
// any Workers setting. On failure the lowest-index error is returned.
func mapUnits[T any](o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	ctx := o.ctx()
	out := make([]T, n)
	err := par.ForEachErr(o.Workers, n, func(i int) error {
		if err := errs.Ctx(ctx); err != nil {
			return fmt.Errorf("experiments: unit %d: %w", i, err)
		}
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper claim being regenerated
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "Claim: %s\n", t.Claim)
	table.Write(&b, t.Header, t.Rows)
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is one experiment entry point.
type Runner struct {
	ID   string
	Name string
	Run  func(Options) (*Table, error)
}

// All returns every experiment in order.
func All() []Runner {
	return []Runner{
		{"E1", "FKP alpha sweep (paper §3.1)", E1FKPSweep},
		{"E2", "Buy-at-bulk access design output shape (paper §4.2)", E2BuyAtBulk},
		{"E3", "Economies of scale / cost ratios (paper §4.1)", E3CostRatios},
		{"E4", "Cost-based vs profit-based formulation (paper §2.2)", E4CostVsProfit},
		{"E5", "National ISP hierarchy (paper §2.2)", E5NationalISP},
		{"E6", "Peering and the AS graph (paper §2.3)", E6Peering},
		{"E7", "Descriptive vs explanatory generators (paper §1)", E7GeneratorComparison},
		{"E8", "Robust yet fragile (paper §3.1)", E8Robustness},
		{"E9", "Path redundancy breaks trees (paper §4, footnote 7)", E9Redundancy},
		{"E10", "Level-2 technology ablation (paper §2.4)", E10Level2Rings},
		{"E11", "Designed vs blind performance (paper §3.1)", E11Performance},
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
