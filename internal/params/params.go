// Package params is the shared typed-parameter and registry machinery
// under every component family: generators (internal/scenario),
// metrics (internal/metricreg), attacks (internal/attackreg) and demand
// models (internal/trafficreg). Components declare their interfaces as
// []Spec, carry arguments as Params (a JSON-number map, so every
// parameter set round-trips through JSON verbatim), and live in a
// Registry, the one place names are registered, looked up, resolved
// against their specs, parsed from CLI flags and listed. All rejections
// wrap errs.ErrBadParam, never panic — malformed CLI flags and fuzzer
// garbage alike surface as classifiable errors.
package params

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/errs"
)

// Kind is the declared type of one parameter.
type Kind string

// Parameter kinds. Values travel as JSON numbers (float64); Int-kind
// parameters additionally require an integral value no larger in
// magnitude than 2^53.
const (
	Int   Kind = "int"
	Float Kind = "float"
)

// maxExactInt is 2^53: every integer of at most this magnitude is
// exactly a float64. Int values beyond it are rejected, since a JSON
// number such as 1e19 is integral but does not fit an int, and
// Params.Int would wrap it.
const maxExactInt = 1 << 53

// Spec declares one named parameter: its kind, default, and optional
// closed bounds. Specs are JSON-serializable so tooling can enumerate a
// registered component's interface.
type Spec struct {
	Name    string  `json:"name"`
	Kind    Kind    `json:"kind"`
	Default float64 `json:"default"`
	// Min/Max bound the accepted value when non-nil.
	Min  *float64 `json:"min,omitempty"`
	Max  *float64 `json:"max,omitempty"`
	Help string   `json:"help,omitempty"`
}

// Check validates one value against the spec, wrapping errs.ErrBadParam
// on NaN/Inf, non-integral Int values, Int values beyond ±2^53, and
// bound violations.
func (s *Spec) Check(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return errs.BadParamf("parameter %q = %v", s.Name, v)
	}
	if s.Kind == Int && v != math.Trunc(v) {
		return errs.BadParamf("parameter %q = %v, want an integer", s.Name, v)
	}
	if s.Kind == Int && math.Abs(v) > maxExactInt {
		return errs.BadParamf("parameter %q = %v, want an integer within ±2^53", s.Name, v)
	}
	if s.Min != nil && v < *s.Min {
		return errs.BadParamf("parameter %q = %v below minimum %v", s.Name, v, *s.Min)
	}
	if s.Max != nil && v > *s.Max {
		return errs.BadParamf("parameter %q = %v above maximum %v", s.Name, v, *s.Max)
	}
	return nil
}

// Params carries arguments by name. Values are float64 — the JSON
// number type — so a Params map round-trips through JSON verbatim;
// Int-kind parameters are validated to hold integral values.
type Params map[string]float64

// Int reads a parameter as an int (the value is validated integral and
// within ±2^53 before a component sees it, so the conversion is exact).
func (p Params) Int(name string) int { return int(p[name]) }

// Float reads a parameter as a float64.
func (p Params) Float(name string) float64 { return p[name] }

// Seed reads the conventional "seed" parameter.
func (p Params) Seed() int64 { return int64(p["seed"]) }

// Clone returns an independent copy of p (nil stays usable: the copy is
// an empty, writable map).
func (p Params) Clone() Params {
	out := make(Params, len(p)+1)
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Resolve validates user-supplied params against the declared specs and
// returns a complete parameter set with defaults filled in. Unknown
// names, non-integral Int values and out-of-bounds values are rejected
// with errs.ErrBadParam-wrapping errors prefixed by owner (e.g.
// `scenario: generator "ba"`).
func Resolve(owner string, specs []Spec, p Params) (Params, error) {
	byName := make(map[string]*Spec, len(specs))
	out := make(Params, len(specs))
	for i := range specs {
		byName[specs[i].Name] = &specs[i]
		out[specs[i].Name] = specs[i].Default
	}
	for name, v := range p {
		spec, ok := byName[name]
		if !ok {
			return nil, errs.BadParamf("%s has no parameter %q (have %s)",
				owner, name, Names(specs))
		}
		if err := spec.Check(v); err != nil {
			return nil, errs.BadParamf("%s: %v", owner, err)
		}
		out[name] = v
	}
	return out, nil
}

// Names renders the declared parameter names, sorted and
// comma-separated, for error messages and listings.
func Names(specs []Spec) string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ParseKV splits one "name=value" pair, wrapping errs.ErrBadParam on a
// missing '=', empty name, or non-numeric value.
func ParseKV(s string) (string, float64, error) {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return "", 0, errs.BadParamf("want name=value, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return "", 0, errs.BadParamf("parameter %q: invalid value %q", name, val)
	}
	return name, v, nil
}

// ParseKVs folds a list of "name=value" pairs into a Params map; later
// pairs override earlier ones.
func ParseKVs(pairs []string) (Params, error) {
	out := Params{}
	for _, s := range pairs {
		name, v, err := ParseKV(s)
		if err != nil {
			return nil, err
		}
		out[name] = v
	}
	return out, nil
}

// Selection names one registered component with optional parameters —
// the unit Registry.Resolve validates and Registry.ParseSelections
// builds from CLI flags. It round-trips through JSON.
type Selection struct {
	Name   string `json:"name"`
	Params Params `json:"params,omitempty"`
}
