package metricreg

import (
	"repro/internal/errs"
)

// MaskedSet is a metric set resolved for masked (node-removal)
// evaluation — the robustness-sweep contract. Resolution validates once
// up front (unknown names, missing CapMasked, bad params all wrap
// errs.ErrBadParam); NewAccumulators then builds one accumulator per
// metric per sweep trial, and each accumulator is reused across every
// step of that trial's removal schedule.
type MaskedSet struct {
	names     []string
	factories []func() (MaskedAccumulator, error)
}

// ResolveMasked resolves a named metric set for masked evaluation with
// default (nil) parameters. Metrics that do not declare CapMasked are
// rejected.
func (r *Registry) ResolveMasked(names []string, seed int64) (*MaskedSet, error) {
	if len(names) == 0 {
		return nil, errs.BadParamf("metricreg: empty masked metric set")
	}
	set := &MaskedSet{
		names:     append([]string(nil), names...),
		factories: make([]func() (MaskedAccumulator, error), len(names)),
	}
	for i, name := range names {
		name := name
		m, resolved, err := r.Resolve(Selection{Name: name})
		if err != nil {
			return nil, err
		}
		if m.Caps()&CapMasked == 0 {
			return nil, errs.BadParamf("metricreg: metric %q does not support masked evaluation", name)
		}
		set.factories[i] = func() (MaskedAccumulator, error) {
			// A metric that declares CapMasked but whose accumulator
			// cannot evaluate masked is a registration bug surfaced as
			// ErrBadParam, not a panic.
			acc, ok := m.New(resolved, seed).(MaskedAccumulator)
			if !ok {
				return nil, errs.BadParamf("metricreg: metric %q accumulator cannot evaluate masked", name)
			}
			return acc, nil
		}
	}
	return set, nil
}

// ResolveMasked resolves names in the default registry.
func ResolveMasked(names []string, seed int64) (*MaskedSet, error) {
	return defaultRegistry.ResolveMasked(names, seed)
}

// NewAccumulators builds one fresh accumulator per metric, in set
// order.
func (s *MaskedSet) NewAccumulators() ([]MaskedAccumulator, error) {
	accs := make([]MaskedAccumulator, len(s.factories))
	for i, f := range s.factories {
		acc, err := f()
		if err != nil {
			return nil, err
		}
		accs[i] = acc
	}
	return accs, nil
}
