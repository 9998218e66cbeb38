package params

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/errs"
)

// Component is what a Registry holds: a named component with a typed
// parameter interface (a generator, metric, attack or demand model).
type Component interface {
	// Name is the registry key.
	Name() string
	// Params declares the accepted parameters with kinds, defaults and
	// bounds.
	Params() []Spec
}

// Registry maps names to the components of one family. Every family is
// one of these, so registration, lookup, validation, CLI selection
// parsing and listing follow a single path. It is safe for concurrent
// use; build one with NewRegistry (the zero value has no error prefix
// and no aliases).
type Registry[T Component] struct {
	prefix, noun string
	aliases      map[string]string
	label        func(T) string

	mu     sync.RWMutex
	byName map[string]T
}

// NewRegistry returns an empty registry. prefix starts every error
// message (the owning package, e.g. "metricreg") and noun names the
// component kind in them (e.g. "metric"). aliases maps historical
// spellings onto registry names (nil for none); the map is retained and
// must not change afterwards. label, when non-nil, annotates each
// component's name line in Format listings.
func NewRegistry[T Component](prefix, noun string, aliases map[string]string, label func(T) string) *Registry[T] {
	return &Registry[T]{prefix: prefix, noun: noun, aliases: aliases, label: label}
}

// Register adds a component, rejecting duplicate or empty names.
func (r *Registry[T]) Register(c T) error {
	name := c.Name()
	if name == "" {
		return errs.BadParamf("%s: %s with empty name", r.prefix, r.noun)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = map[string]T{}
	}
	if _, dup := r.byName[name]; dup {
		return errs.BadParamf("%s: %s %q already registered", r.prefix, r.noun, name)
	}
	r.byName[name] = c
	return nil
}

// Canonical maps a possibly-aliased name to its registry key. Unknown
// names pass through unchanged (Lookup reports them).
func (r *Registry[T]) Canonical(name string) string {
	if c, ok := r.aliases[name]; ok {
		return c
	}
	return name
}

// Lookup resolves a component by name (aliases included), wrapping
// errs.ErrBadParam for unknown names; the error lists the registered
// names.
func (r *Registry[T]) Lookup(name string) (T, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.byName[r.Canonical(name)]
	if !ok {
		return c, errs.BadParamf("%s: unknown %s %q (have %v)", r.prefix, r.noun, name, r.namesLocked())
	}
	return c, nil
}

// Names lists every registered name, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.namesLocked()
}

func (r *Registry[T]) namesLocked() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Resolve looks sel's component up and validates its params against the
// declared specs, returning the component with its complete parameter
// set (defaults filled in). Unknown names and parameters, non-integral
// or inexact Int values and out-of-bounds values wrap errs.ErrBadParam.
func (r *Registry[T]) Resolve(sel Selection) (T, Params, error) {
	var zero T
	c, err := r.Lookup(sel.Name)
	if err != nil {
		return zero, nil, err
	}
	p, err := Resolve(fmt.Sprintf("%s: %s %q", r.prefix, r.noun, c.Name()), c.Params(), sel.Params)
	if err != nil {
		return zero, nil, err
	}
	return c, p, nil
}

// ParseSelections builds a component set from a comma-separated name
// list plus "component.param=value" assignments — the shared CLI flag
// syntax. The index is keyed by canonical name, so an alias and its
// canonical spelling are caught as duplicates and an assignment reaches
// its component through either spelling. Every failure wraps
// errs.ErrBadParam; assignments naming a component outside the selected
// set are rejected so typos fail loudly. Names are not looked up here:
// Resolve reports unknown ones.
func (r *Registry[T]) ParseSelections(names string, kvs []string) ([]Selection, error) {
	var set []Selection
	index := map[string]int{}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, errs.BadParamf("%s: empty %s name in %q", r.prefix, r.noun, names)
		}
		key := r.Canonical(name)
		if _, dup := index[key]; dup {
			return nil, errs.BadParamf("%s: duplicate %s %q in %q", r.prefix, r.noun, name, names)
		}
		index[key] = len(set)
		set = append(set, Selection{Name: name})
	}
	for _, kv := range kvs {
		full, v, err := ParseKV(kv)
		if err != nil {
			return nil, err
		}
		component, param, ok := strings.Cut(full, ".")
		if !ok || component == "" || param == "" {
			return nil, errs.BadParamf("%s: want %s.param=value, got %q", r.prefix, r.noun, kv)
		}
		i, ok := index[r.Canonical(component)]
		if !ok {
			return nil, errs.BadParamf("%s: parameter %q names %s %q outside the selected set", r.prefix, kv, r.noun, component)
		}
		if set[i].Params == nil {
			set[i].Params = Params{}
		}
		set[i].Params[param] = v
	}
	return set, nil
}

// Format writes the human-readable listing the CLIs' -list flags print:
// every component sorted by name (with its label, if the registry has
// one), then one line per parameter sorted by name and prefixed with
// paramPrefix. qualify writes each parameter as component.param, the
// ParseSelections assignment syntax; generators take bare names.
func (r *Registry[T]) Format(w io.Writer, paramPrefix string, qualify bool) {
	for _, name := range r.Names() {
		c, err := r.Lookup(name)
		if err != nil {
			continue
		}
		if r.label != nil {
			fmt.Fprintf(w, "%s  %s\n", name, r.label(c))
		} else {
			fmt.Fprintf(w, "%s\n", name)
		}
		owner := ""
		if qualify {
			owner = name + "."
		}
		specs := c.Params()
		sort.Slice(specs, func(a, b int) bool { return specs[a].Name < specs[b].Name })
		for _, s := range specs {
			fmt.Fprintf(w, "  %s%s%s=<%s>  (default %g)  %s\n", paramPrefix, owner, s.Name, s.Kind, s.Default, s.Help)
		}
	}
}
